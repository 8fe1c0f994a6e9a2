type 's op = { op_name : string; op_apply : 's -> 's }

type 'a abop = { abop_name : string; abop_apply : 'a -> 'a }

type ('s, 'i, 'o, 'a, 'p) t = {
  name : string;
  colours : Colour.t list;
  initial : 's list;
  inputs : 'i list;
  ops : 's op list;
  colour_of : 's -> Colour.t;
  input : 's -> 'i -> 's;
  nextop : 's -> 's op;
  output : 's -> 'o;
  extract_input : Colour.t -> 'i -> 'p;
  extract_output : Colour.t -> 'o -> 'p;
  abstract : Colour.t -> 's -> 'a;
  abop : Colour.t -> 's op -> 'a abop;
  sanctioned_interference : Colour.t -> Colour.t -> 'a -> 'a -> bool;
  equal_state : 's -> 's -> bool;
  hash_state : 's -> int;
  equal_abstate : 'a -> 'a -> bool;
  hash_abstate : 'a -> int;
  equal_proj : 'p -> 'p -> bool;
  pp_state : Format.formatter -> 's -> unit;
  pp_input : Format.formatter -> 'i -> unit;
  pp_abstate : Format.formatter -> 'a -> unit;
}

let step sys s i =
  let mid = sys.input s i in
  (sys.nextop mid).op_apply mid

type 's graph = { states : 's array; after_input : int array array; after_op : int array }

let explore ?(limit = 200_000) sys =
  (* hash -> the (state, index) pairs seen with that hash; [equal_state]
     decides *)
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let out = ref [] in
  let rows = ref [] in
  let count = ref 0 in
  (* [after_op] grows with [count]; -1 until NEXTOP is applied there *)
  let after_op = ref (Array.make 1024 (-1)) in
  let visit s =
    let h = sys.hash_state s in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt seen h) in
    match List.find_opt (fun (s', _) -> sys.equal_state s s') bucket with
    | Some (_, k) -> k
    | None ->
      let k = !count in
      Hashtbl.replace seen h ((s, k) :: bucket);
      incr count;
      if !count > limit then failwith "System.reachable: state limit exceeded";
      if k = Array.length !after_op then begin
        let grown = Array.make (2 * k) (-1) in
        Array.blit !after_op 0 grown 0 k;
        after_op := grown
      end;
      out := s :: !out;
      Queue.push s queue;
      k
  in
  List.iter (fun s -> ignore (visit s)) sys.initial;
  let inputs = Array.of_list sys.inputs in
  (* States leave the queue in index order, so [k] is [s]'s own index. *)
  let popped = ref 0 in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let k = !popped in
    incr popped;
    let explore i =
      (* The post-INPUT state is visited too: NEXTOP is applied there, so
         the separability conditions must be checked in it. Equal states
         are one state, so NEXTOP is applied once per post-INPUT state;
         on a repeat its successor is already visited. An input that
         leaves [s] as it was, as about half of them do, lands on [s]'s
         own class, so that state needs no hash and no lookup. *)
      let mid = sys.input s i in
      let m = if sys.equal_state mid s then k else visit mid in
      if !after_op.(m) < 0 then begin
        let next = visit ((sys.nextop mid).op_apply mid) in
        !after_op.(m) <- next
      end;
      m
    in
    (* [Array.init] applies in index order, which fixes the visit order *)
    rows := Array.init (Array.length inputs) (fun j -> explore inputs.(j)) :: !rows
  done;
  {
    states = Array.of_list (List.rev !out);
    after_input = Array.of_list (List.rev !rows);
    after_op = Array.sub !after_op 0 !count;
  }

let reachable ?limit sys = Array.to_list (explore ?limit sys).states

let trace sys s ins =
  let rec loop s acc_states acc_outs = function
    | [] -> (List.rev (s :: acc_states), List.rev acc_outs)
    | i :: rest ->
      let o = sys.output s in
      let s' = step sys s i in
      loop s' (s :: acc_states) (o :: acc_outs) rest
  in
  loop s [] [] ins
