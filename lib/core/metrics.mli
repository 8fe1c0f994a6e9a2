(** Size and complexity profiles for the kernel comparison (E2).

    The SUE "occupies about 5K words, including all stack and data space"
    and implements almost nothing: no paging, no scheduling policy, no
    I/O, no security policy. The conventional kernel must mediate every
    access and know the system's policy. These profiles make the
    comparison concrete for our two implementations. *)

type profile = {
  name : string;
  policy_free : bool;  (** does the kernel know the security policy? *)
  services : string list;  (** kernel entry points / mediated calls *)
  kernel_words : int option;  (** resident kernel data, where meaningful *)
  mediates_io : bool;
  scheduling : string;
  verification : string;  (** applicable verification technique *)
}

val sue_profile : Sep_hw.Isa.stmt list Config.t -> profile
(** Kernel-word count computed from the actual layout of the given
    configuration. *)

val conventional_profile : profile

val pp_profile : Format.formatter -> profile -> unit
