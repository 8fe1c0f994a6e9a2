module Sclass = Sep_lattice.Sclass

type env = Ast.var -> Sclass.t

type violation = {
  variable : Ast.var;
  flow_from : Sclass.t;
  flow_to : Sclass.t;
  site : string;
  implicit : bool;
}

let expr_class env e =
  Sclass.lub_all (List.map env (Ast.vars_of_expr e))

let certify env stmt =
  let out = ref [] in
  let rec walk pc = function
    | Ast.Skip -> ()
    | Ast.Assign (v, e) ->
      let rhs = expr_class env e in
      let from = Sclass.lub rhs pc in
      let target = env v in
      if not (Sclass.leq from target) then
        out :=
          {
            variable = v;
            flow_from = from;
            flow_to = target;
            site = Fmt.str "%a" Ast.pp_stmt (Ast.Assign (v, e));
            implicit = Sclass.leq rhs target;
          }
          :: !out
    | Ast.Seq ss -> List.iter (walk pc) ss
    | Ast.If (e, a, b) ->
      let pc = Sclass.lub pc (expr_class env e) in
      walk pc a;
      walk pc b
    | Ast.While (e, s) -> walk (Sclass.lub pc (expr_class env e)) s
  in
  walk Sclass.unclassified stmt;
  List.rev !out

let secure env stmt = certify env stmt = []
