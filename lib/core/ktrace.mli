(** Kernel execution tracing.

    A diagnostic observer for {!Sue} runs: it reconstructs, step by step,
    what the kernel did — instructions executed per regime, traps, context
    switches, waits, parks, wake-ups, external arrivals and emissions — by
    diffing the machine-visible state around each step. It deliberately
    uses only the kernel's public verification interface ({!Sue.phi},
    {!Sue.current_colour}, ...), so tracing can never perturb the traced
    system. *)

type event =
  | Executed of { colour : Sep_model.Colour.t; pc : int; instr : Sep_hw.Isa.t }
      (** one instruction ran on behalf of a regime *)
  | Trapped of { colour : Sep_model.Colour.t; number : int }
      (** the instruction was a kernel call *)
  | Switched of { from_ : Sep_model.Colour.t; to_ : Sep_model.Colour.t }
  | Blocked of Sep_model.Colour.t  (** entered the waiting state *)
  | Parked of Sep_model.Colour.t  (** faulted or trapped illegally; never runs again *)
  | Woken of Sep_model.Colour.t  (** resumed by an interrupt *)
  | Arrived of { device : int; word : int }  (** external input latched *)
  | Emitted of { device : int; word : int }  (** word observed on a Tx wire *)
  | Stalled  (** no regime was runnable this step *)
  | Save_corrupt of Sep_model.Colour.t
      (** audit: a save-area checksum mismatch parked this regime *)
  | Guard_breached of { addr : int }  (** audit: a guard word was overwritten (and repaired) *)
  | Channel_corrupt of { addr : int }
      (** audit: a channel ring's head word held an out-of-range index (and was repaired) *)
  | Watchdog_fired of Sep_model.Colour.t  (** audit: the watchdog forced this regime off *)
  | Kernel_panicked of { reason : string }  (** audit: fault inside the kernel; everything parked *)
  | Restarted of Sep_model.Colour.t
      (** audit: this regime was restored from its checkpoint *)
  | Checkpoint_corrupt of Sep_model.Colour.t
      (** audit: a restart found its checkpoint corrupt; regime left parked *)
  | Warm_rebooted  (** audit: the kernel warm-rebooted out of an all-parked halt *)

val pp_event : Format.formatter -> event -> unit

type entry = { step : int; events : event list }

val step : Sue.t -> Sue.input -> event list
(** Advance the kernel one step (mutating it, exactly like {!Sue.step})
    and return the events of that step, in occurrence order: output
    observations, arrivals, wake-ups, then execution and its
    consequences. *)

val record : Sue.t -> steps:int -> inputs:(int -> Sue.input) -> entry list
(** Run and collect; entries with no events are omitted. *)

val render : entry list -> string
(** One line per event, prefixed with the step number. *)

val event_to_json : event -> Sep_util.Json.t
(** One event as a JSON object, discriminated by a ["type"] field
    ([executed], [trapped], [switched], [blocked], [parked], [woken],
    [arrived], [emitted], [stalled], [save-corrupt], [guard-breached],
    [channel-corrupt],
    [watchdog-fired], [kernel-panicked], [restarted], [checkpoint-corrupt],
    [warm-rebooted]). Exhaustive over the constructors
    by construction: a new event cannot compile without a schema entry. *)

val to_json : entry list -> string
(** JSONL: one [{"step": n, "events": [...]}] line per entry — the
    machine-readable sibling of {!render}. *)
