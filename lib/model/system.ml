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

let reachable ?(limit = 200_000) sys =
  (* hash -> the states seen with that hash; [equal_state] decides *)
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let out = ref [] in
  let count = ref 0 in
  let visit s =
    let h = sys.hash_state s in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt seen h) in
    if not (List.exists (sys.equal_state s) bucket) then begin
      Hashtbl.replace seen h (s :: bucket);
      incr count;
      if !count > limit then failwith "System.reachable: state limit exceeded";
      out := s :: !out;
      Queue.push s queue
    end
  in
  List.iter visit sys.initial;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let explore i =
      (* Visit the post-INPUT state too: NEXTOP is applied there, so the
         separability conditions must be checked in it. *)
      let mid = sys.input s i in
      visit mid;
      visit ((sys.nextop mid).op_apply mid)
    in
    List.iter explore sys.inputs
  done;
  List.rev !out

let trace sys s ins =
  let rec loop s acc_states acc_outs = function
    | [] -> (List.rev (s :: acc_states), List.rev acc_outs)
    | i :: rest ->
      let o = sys.output s in
      let s' = step sys s i in
      loop s' (s :: acc_states) (o :: acc_outs) rest
  in
  loop s [] [] ins
