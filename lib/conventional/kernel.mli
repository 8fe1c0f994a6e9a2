(** A conventional kernelized system, KSOS-style: the baseline the paper
    argues against.

    This kernel is the "centralized agent for the enforcement of a uniform
    system-wide security policy": it mediates {e every} access by every
    process to every object and applies Bell-LaPadula to each. Because
    real system functions do not fit that single policy, it also carries
    the fatal feature: a {e trusted-process} flag that exempts its holder
    from the ★-property. Every syscall decision is recorded in an audit
    log, so experiments can count how often the system only works because
    trust overrode the policy. *)

type t

type proc_id = int
type obj_id = int

type denial =
  | No_such_object
  | No_such_process
  | Ss_violation  (** read-up refused *)
  | Star_violation  (** write-down refused *)

type syscall =
  | Create
  | Read
  | Write
  | Append
  | Delete
  | Ipc_send  (** message to another process's mailbox: modelled as Append to it *)

type audit_entry = {
  au_proc : string;
  au_call : syscall;
  au_object : string;
  au_granted : bool;
  au_by_trust : bool;  (** granted only because the process is trusted *)
}

val boot : unit -> t

val add_process : t -> name:string -> clearance:Sep_lattice.Sclass.t -> trusted:bool -> proc_id

val create_object :
  t -> proc_id -> name:string -> classification:Sep_lattice.Sclass.t ->
  (obj_id, denial) result
(** Creation writes the new object: the ★-property applies (no creating
    below your level). *)

val read : t -> proc_id -> obj_id -> (string, denial) result
val write : t -> proc_id -> obj_id -> string -> (unit, denial) result
val append : t -> proc_id -> obj_id -> string -> (unit, denial) result
val delete : t -> proc_id -> obj_id -> (unit, denial) result
val ipc_send : t -> proc_id -> to_:proc_id -> string -> (unit, denial) result
val ipc_recv : t -> proc_id -> (string option, denial) result

val find_object : t -> string -> obj_id option
val object_names : t -> string list
(** All live object names (unmediated — test/metric use only). *)

val audit : t -> audit_entry list
(** Oldest first. *)

type stats = {
  mediated_calls : int;  (** syscalls the kernel had to check *)
  grants : int;
  denials : int;
  by_trust : int;  (** grants that required the trusted-process exemption *)
}

val stats : t -> stats

val pp_denial : Format.formatter -> denial -> unit

val syscall_surface : int
(** Number of distinct policy-mediated kernel entry points — a size/
    complexity proxy for E2 (compare {!Sep_core.Sue}, which implements
    three policy-free traps). *)
