module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine

type instance = {
  label : string;
  cfg : Isa.stmt list Config.t;
  alphabet : Sue.input list;
}

(* Register conventions in these programs: r6 = device base (0x8000),
   r5 = zero for comparisons, r0/r1/r2 = trap arguments and data. *)

let device_base = [ Isa.Instr (Isa.Loadi (6, 1)); Isa.Instr (Isa.Shl (6, 15)) ]

let pipeline_red =
  device_base
  @ [
      Isa.Label "loop";
      Isa.Instr (Isa.Loadi (5, 0));
      Isa.Instr (Isa.Load (1, 6, 1));  (* Rx status *)
      Isa.Instr (Isa.Cmp (1, 5));
      Isa.Branch_eq "wait";
      Isa.Instr (Isa.Load (2, 6, 0));  (* consume the Rx word *)
      Isa.Instr (Isa.Loadi (3, 7));  (* a register SWAP must preserve *)
      Isa.Instr (Isa.Store (2, 6, 2));  (* echo to the Tx wire *)
      Isa.Instr (Isa.Mov (1, 2));
      Isa.Instr (Isa.Loadi (0, 0));
      Isa.Instr (Isa.Trap 1);  (* send down channel 0 *)
      Isa.Instr (Isa.Mov (0, 2));  (* leave data-dependent parity in r0 *)
      Isa.Instr (Isa.Trap 0);  (* yield *)
      Isa.Branch "loop";
      Isa.Label "wait";
      Isa.Instr Isa.Halt;
      Isa.Branch "loop";
    ]

let pipeline_black =
  device_base
  @ [
      Isa.Label "loop";
      Isa.Instr (Isa.Loadi (5, 0));
      Isa.Instr (Isa.Load (1, 6, 1));
      Isa.Instr (Isa.Cmp (1, 5));
      Isa.Branch_eq "skip";
      Isa.Instr (Isa.Load (1, 6, 0));  (* r1 := arrived word *)
      Isa.Label "skip";
      Isa.Instr (Isa.Loadi (0, 0));
      Isa.Instr (Isa.Trap 2);  (* receive from channel 0 *)
      Isa.Instr (Isa.Trap 0);
      Isa.Branch "loop";
    ]

let pipeline =
  let cfg =
    Config.make
      ~regimes:
        [
          {
            Config.colour = Colour.red;
            part_size = 20;
            program = pipeline_red;
            devices = [ Machine.Rx; Machine.Tx ];
          };
          {
            Config.colour = Colour.black;
            part_size = 16;
            program = pipeline_black;
            devices = [ Machine.Rx ];
          };
        ]
      ~channels:[ (Colour.red, Colour.black, 1) ]
      ()
  in
  {
    label = "pipeline";
    cfg = Config.cut_all cfg;
    alphabet = [ []; [ (0, 0) ]; [ (0, 1) ]; [ (2, 0) ]; [ (2, 1) ] ];
  }

let interrupt_program =
  device_base
  @ [
      Isa.Label "loop";
      Isa.Instr Isa.Halt;  (* wait for interrupt *)
      Isa.Instr (Isa.Load (2, 6, 0));  (* consume *)
      Isa.Instr (Isa.Mov (0, 2));
      Isa.Branch "loop";
    ]

let interrupt =
  let regime colour =
    { Config.colour; part_size = 8; program = interrupt_program; devices = [ Machine.Rx ] }
  in
  let cfg = Config.make ~regimes:[ regime Colour.red; regime Colour.black ] ~channels:[] () in
  {
    label = "interrupt";
    cfg;
    alphabet = [ []; [ (0, 0) ]; [ (0, 1) ]; [ (1, 0) ]; [ (1, 1) ] ];
  }

(* Machine-level SNFE. RED's device slots: 0 = host Rx, 1 = crypto
   transform; BLACK's slot 0 = network Tx. Channel 0 carries ciphertext
   RED->BLACK, channel 1 headers RED->CENSOR, channel 2 vetted headers
   CENSOR->BLACK. *)

let censor_colour = Colour.make "CENSOR"

let snfe_red =
  device_base
  @ [
      Isa.Label "loop";
      Isa.Instr (Isa.Loadi (5, 0));
      Isa.Instr (Isa.Load (1, 6, 1));  (* host Rx status *)
      Isa.Instr (Isa.Cmp (1, 5));
      Isa.Branch_eq "wait";
      Isa.Instr (Isa.Load (2, 6, 0));  (* consume the host word *)
      Isa.Instr (Isa.Store (2, 6, 2));  (* into the crypto *)
      Isa.Instr (Isa.Load (1, 6, 2));  (* ciphertext back *)
      Isa.Instr (Isa.Loadi (0, 0));
      Isa.Instr (Isa.Trap 1);  (* ciphertext to BLACK *)
      Isa.Instr (Isa.Mov (1, 2));
      Isa.Instr (Isa.Loadi (3, 3));
      Isa.Instr (Isa.And_ (1, 3));  (* header: two low bits of the plaintext *)
      Isa.Instr (Isa.Loadi (0, 1));
      Isa.Instr (Isa.Trap 1);  (* header to the CENSOR *)
      Isa.Instr (Isa.Trap 0);
      Isa.Branch "loop";
      Isa.Label "wait";
      Isa.Instr Isa.Halt;
      Isa.Branch "loop";
    ]

let snfe_censor =
  [
    Isa.Label "loop";
    Isa.Instr (Isa.Loadi (0, 1));
    Isa.Instr (Isa.Trap 2);  (* header from RED *)
    Isa.Instr (Isa.Loadi (5, 1));
    Isa.Instr (Isa.Cmp (2, 5));
    Isa.Branch_ne "yield";  (* nothing to vet *)
    (* the procedural check: drop anything beyond two bits *)
    Isa.Instr (Isa.Loadi (4, 252));
    Isa.Instr (Isa.Mov (3, 1));
    Isa.Instr (Isa.And_ (3, 4));
    Isa.Branch_ne "yield";  (* over-long header: silently dropped *)
    Isa.Instr (Isa.Loadi (0, 2));
    Isa.Instr (Isa.Trap 1);  (* vetted header to BLACK *)
    Isa.Label "yield";
    Isa.Instr (Isa.Trap 0);
    Isa.Branch "loop";
  ]

let snfe_black =
  device_base
  @ [
      Isa.Label "loop";
      Isa.Instr (Isa.Loadi (0, 0));
      Isa.Instr (Isa.Trap 2);  (* ciphertext *)
      Isa.Instr (Isa.Loadi (5, 1));
      Isa.Instr (Isa.Cmp (2, 5));
      Isa.Branch_ne "headers";
      Isa.Instr (Isa.Store (1, 6, 0));  (* transmit *)
      Isa.Label "headers";
      Isa.Instr (Isa.Loadi (0, 2));
      Isa.Instr (Isa.Trap 2);  (* consume a vetted header, if any *)
      Isa.Instr (Isa.Trap 0);
      Isa.Branch "loop";
    ]

let snfe_micro =
  let cfg =
    Config.make
      ~regimes:
        [
          {
            Config.colour = Colour.red;
            part_size = 24;
            program = snfe_red;
            devices = [ Machine.Rx; Machine.Xform (Machine.Xor_key 0x2a) ];
          };
          { Config.colour = censor_colour; part_size = 18; program = snfe_censor; devices = [] };
          {
            Config.colour = Colour.black;
            part_size = 16;
            program = snfe_black;
            devices = [ Machine.Tx ];
          };
        ]
      ~channels:
        [
          (Colour.red, Colour.black, 1);
          (Colour.red, censor_colour, 1);
          (censor_colour, Colour.black, 1);
        ]
      ()
  in
  {
    label = "snfe-micro";
    cfg = Config.cut_all cfg;
    alphabet = [ []; [ (0, 0) ]; [ (0, 1) ] ];
  }

(* Regimes that never yield: only preemption lets both make progress. *)
let greedy_program mask data_addr =
  [
    Isa.Instr (Isa.Loadi (5, 1));
    Isa.Instr (Isa.Loadi (3, mask));
    Isa.Instr (Isa.Loadi (4, data_addr));
    Isa.Label "loop";
    Isa.Instr (Isa.Load (1, 4, 0));
    Isa.Instr (Isa.Add (1, 5));
    Isa.Instr (Isa.And_ (1, 3));
    Isa.Instr (Isa.Store (1, 4, 0));
    Isa.Branch "loop";
  ]

let preemptive =
  let data_addr = 9 in
  let regime colour =
    { Config.colour; part_size = data_addr + 1; program = greedy_program 3 data_addr; devices = [] }
  in
  let cfg =
    Config.make ~quantum:3 ~regimes:[ regime Colour.red; regime Colour.black ] ~channels:[] ()
  in
  { label = "preemptive"; cfg; alphabet = [ [] ] }

let all = [ pipeline; interrupt; snfe_micro; preemptive ]

let scaled ~regimes ~counter_bits =
  assert (regimes >= 1 && counter_bits >= 1 && counter_bits <= 8);
  let mask = (1 lsl counter_bits) - 1 in
  let data_addr = 10 in
  let program =
    [
      Isa.Instr (Isa.Loadi (5, 1));
      Isa.Instr (Isa.Loadi (3, mask));
      Isa.Instr (Isa.Loadi (4, data_addr));
      Isa.Label "loop";
      Isa.Instr (Isa.Load (1, 4, 0));
      Isa.Instr (Isa.Add (1, 5));
      Isa.Instr (Isa.And_ (1, 3));
      Isa.Instr (Isa.Store (1, 4, 0));
      Isa.Instr (Isa.Trap 0);
      Isa.Branch "loop";
    ]
  in
  let regime i =
    { Config.colour = Colour.of_index i; part_size = data_addr + 1; program; devices = [] }
  in
  let cfg = Config.make ~regimes:(List.init regimes regime) ~channels:[] () in
  { label = Fmt.str "scaled-%dx%db" regimes counter_bits; cfg; alphabet = [ [] ] }

let find label = List.find_opt (fun i -> i.label = label) all

let drip alphabet =
  let alphabet = Array.of_list alphabet in
  let n = Array.length alphabet in
  fun step -> if n > 1 && step mod 10 = 0 then alphabet.((step / 10) mod (n - 1) + 1) else []
