(** The recovery supervisor: fail-operational on top of fail-safe.

    PR 2's hardening gives the kernel fail-{e safe} transitions — a
    corrupted regime parks, a fault inside the kernel panics to an
    all-parked halt — but the system never comes back. This supervisor
    closes the loop: after each kernel step it restarts parked regimes
    from their checkpoints ({!Sep_core.Sue.restart}) and answers an
    all-parked halt with a kernel warm reboot
    ({!Sep_core.Sue.warm_reboot}), under budgets that keep a persistently
    crashing regime from turning recovery into a crash loop.

    The supervisor is deliberately {e outside} the kernel: it drives only
    the public recovery operations, so everything it does is subject to
    the same separability verification as any other kernel behaviour
    (see {!Proof}). Requires the [Microcode] kernel, like the operations
    it drives. *)

type policy = {
  max_restarts : int;  (** per-colour restart budget (warm-reboot restores count) *)
  max_warm_reboots : int;  (** whole-kernel reboot budget *)
}

val default_policy : policy
(** 3 restarts per colour, 2 warm reboots. *)

type action =
  | Restarted of Sep_model.Colour.t
  | Warm_rebooted of Sep_model.Colour.t list  (** the colours the reboot restored *)
  | Gave_up of Sep_model.Colour.t
      (** budget exhausted or checkpoint corrupt: the regime stays parked *)

val pp_action : Format.formatter -> action -> unit

type t

val create : ?policy:policy -> Sep_core.Sue.t -> t

val kernel : t -> Sep_core.Sue.t

val tick : t -> action list
(** One supervision round, to run after each kernel step: restart parked
    regimes within budget (or warm-reboot an all-parked kernel), give up
    on the rest. Returns this round's actions in order; [[]] when nothing
    was parked. *)

val parked : t -> Sep_model.Colour.t list
(** The colours whose regimes are parked right now, in regime order. *)

val restart_count : t -> Sep_model.Colour.t -> int
val warm_reboots : t -> int

val abandoned : t -> Sep_model.Colour.t list
(** Colours given up on, oldest first. *)

val log : t -> action list
(** Every action ever taken, oldest first. *)

val fully_recovered : t -> bool
(** Nothing is parked and nothing was abandoned: every crash so far was
    recovered. *)
