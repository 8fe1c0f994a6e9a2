(** Bell-LaPadula multilevel security: the policy the trusted components
    enforce (and the policy a conventional kernel imposes system-wide).

    - {e ss-property} (no read up): a subject may observe an object only
      if its clearance dominates the object's classification.
    - {e ★-property} (no write down): a subject may alter an object only
      if the object's classification dominates the subject's current
      level.

    Trusted subjects are exempt from the ★-property — which is precisely
    the loophole the paper criticises: "the spooler cannot delete spool
    files after their contents have been printed — for such action
    conflicts with the (kernel enforced) ★-property". The conventional
    kernel baseline ({!Sep_conventional}) uses the exemption; the
    separation-kernel design never needs it. *)

type subject = {
  sub_name : string;
  clearance : Sep_lattice.Sclass.t;
  trusted : bool;  (** exempt from the ★-property *)
}

type obj = { obj_name : string; classification : Sep_lattice.Sclass.t }

type access =
  | Read
  | Write  (** observe-and-alter: both properties apply *)
  | Append  (** alter only: blind write-up is allowed *)

type verdict = {
  granted : bool;
  ss_ok : bool;
  star_ok : bool;
  by_trust : bool;  (** granted only because the subject is trusted *)
}

val subject : ?trusted:bool -> string -> Sep_lattice.Sclass.t -> subject
val obj : string -> Sep_lattice.Sclass.t -> obj

val ss_property : subject -> obj -> bool
(** Clearance dominates classification. *)

val star_property : subject -> obj -> bool
(** Classification dominates clearance. *)

val decide : subject -> access -> obj -> verdict
(** [Read] needs ss; [Append] needs ★; [Write] needs both. A trusted
    subject is excused the ★-property but never the ss-property. *)

val permitted : subject -> access -> obj -> bool
(** [(decide s a o).granted]. *)
