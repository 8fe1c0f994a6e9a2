(** Denning-style information-flow certification.

    The syntactic technique of Denning & Denning (1977) as practiced in
    security-kernel verification at MITRE and for KSOS: every assignment
    [x := e] executed under implicit context [pc] requires
    [lub(class(e), pc) <= class(x)]; conditionals and loops raise the
    context by the class of their guard.

    The analysis is {e syntactic}: it reasons about the classes of
    variables, never their values. That is precisely why it must reject
    the separation kernel's SWAP operation (see {!Programs.swap_impl}),
    which manifestly touches both RED and BLACK values yet is semantically
    secure — the paper's central criticism, reproduced by experiment
    E3. *)

type env = Ast.var -> Sep_lattice.Sclass.t
(** Security class assignment for variables. *)

type violation = {
  variable : Ast.var;  (** the assigned variable *)
  flow_from : Sep_lattice.Sclass.t;  (** class of RHS joined with the context *)
  flow_to : Sep_lattice.Sclass.t;  (** class of the variable *)
  site : string;  (** rendered assignment *)
  implicit : bool;  (** the context (not the RHS alone) caused the breach *)
}

val expr_class : env -> Ast.expr -> Sep_lattice.Sclass.t
(** Least upper bound of the classes of the free variables (bottom for a
    constant expression). *)

val certify : env -> Ast.stmt -> violation list
(** All certification failures, in program order. Empty means the program
    is certified secure by IFA. *)

val secure : env -> Ast.stmt -> bool
