(** Minimal JSON values, writer and reader.

    Hand-rolled so the observability layer ({!Sep_obs}) and the JSONL
    reports depend on nothing outside this repository. The writer emits
    compact, deterministic output (object fields in the order given); the
    reader accepts standard JSON and is used by tests and by the CLI to
    read the checked-in regression corpus. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering. *)

val pp : Format.formatter -> t -> unit
(** Same compact rendering, on a formatter. *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    non-space input is an error). Numbers without [.], [e] or [E] become
    [Int]; others [Float]. [\u] escapes are decoded to UTF-8, including
    UTF-16 surrogate {e pairs} (["\\uD83D\\uDE00" decodes to one supplementary
    code point); a lone surrogate is an error. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k]; [None] on other
    values or a missing key. *)

val equal : t -> t -> bool
(** Structural equality; [Int] and [Float] never compare equal. *)
