module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Sue = Sep_core.Sue

type policy = {
  max_restarts : int;
  max_warm_reboots : int;
}

let default_policy = { max_restarts = 3; max_warm_reboots = 2 }

type action =
  | Restarted of Colour.t
  | Warm_rebooted of Colour.t list
  | Gave_up of Colour.t

let pp_action ppf = function
  | Restarted c -> Fmt.pf ppf "restarted %a" Colour.pp c
  | Warm_rebooted cs -> Fmt.pf ppf "warm reboot restored %a" Fmt.(list ~sep:comma Colour.pp) cs
  | Gave_up c -> Fmt.pf ppf "gave up on %a" Colour.pp c

type t = {
  policy : policy;
  sue : Sue.t;
  mutable restarts : (Colour.t * int) list;
  mutable warm_reboots : int;
  mutable abandoned : Colour.t list;  (* newest first *)
  mutable log : action list;  (* newest first *)
}

let create ?(policy = default_policy) sue =
  { policy; sue; restarts = []; warm_reboots = 0; abandoned = []; log = [] }

let kernel sup = sup.sue

let restart_count sup c =
  match List.assoc_opt c sup.restarts with Some n -> n | None -> 0

let charge sup c =
  sup.restarts <- (c, restart_count sup c + 1) :: List.remove_assoc c sup.restarts

let abandoned sup = List.rev sup.abandoned
let log sup = List.rev sup.log
let warm_reboots sup = sup.warm_reboots

let parked sup =
  List.filter
    (fun c -> Sue.regime_status sup.sue c = Sep_core.Abstract_regime.Parked)
    (Config.colours (Sue.config sup.sue))

(* One supervision round, to run after each kernel step. An all-parked
   halt takes the warm-reboot path (the whole kernel comes back, audit
   log intact); isolated parks take per-regime restarts. Budgets bound
   both, so a regime that keeps crashing (or whose checkpoint is corrupt)
   is eventually abandoned — recovery must not become a crash loop. *)
let supervise sup =
  let actions = ref [] in
  let act a = actions := a :: !actions; sup.log <- a :: sup.log in
  (* a give-up is an action too — callers watching the returned list see
     the abandonment the round it happens (once per colour) *)
  let give_up c =
    if not (List.exists (Colour.equal c) sup.abandoned) then begin
      sup.abandoned <- c :: sup.abandoned;
      act (Gave_up c)
    end
  in
  (match parked sup with
  | [] -> ()
  | victims when Sue.all_parked sup.sue ->
    if sup.warm_reboots >= sup.policy.max_warm_reboots then List.iter give_up victims
    else begin
      sup.warm_reboots <- sup.warm_reboots + 1;
      let restored = Sue.warm_reboot sup.sue in
      List.iter (charge sup) restored;
      act (Warm_rebooted restored);
      List.iter
        (fun c -> if not (List.exists (Colour.equal c) restored) then give_up c)
        victims
    end
  | victims ->
    List.iter
      (fun c ->
        if restart_count sup c >= sup.policy.max_restarts then give_up c
        else begin
          match Sue.restart sup.sue c with
          | Sue.Restarted ->
            charge sup c;
            act (Restarted c)
          | Sue.Bad_checkpoint -> give_up c
          | Sue.Not_parked -> ()
        end)
      victims);
  List.rev !actions

(* [parked sup] is empty exactly when no status word reads parked, so a
   round on a kernel with nothing to recover skips the per-colour scan. *)
let tick sup = if Sue.any_parked sup.sue then supervise sup else []

let fully_recovered sup = (not (Sue.any_parked sup.sue)) && sup.abandoned = []
