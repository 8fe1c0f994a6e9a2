(** Plain-text table rendering for experiment reports.

    The benchmark harness prints one table per reproduced claim; this module
    keeps the column alignment logic in one place. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption and a header row. *)

val add_row : t -> string list -> unit
(** Append a row. Short rows are padded with empty cells; long rows are an
    error. *)

val render : t -> string
(** Render with a title line, a header, a rule, and aligned rows. No
    line ends in a blank. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)
