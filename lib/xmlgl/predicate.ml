(** Evaluation of XML-GL content predicates against a (partial) binding.

    Predicates live on content circles and attribute dots in the query
    graph; operands may refer to the node's own value ([Self]), to other
    query nodes' values (value joins and the arithmetic conditions of
    QBE-style condition boxes) and to constants.

    Evaluation is three-valued in spirit but collapses to [false] on
    missing information (an unbound reference or a non-numeric operand of
    an arithmetic expression): semi-structured data is ragged by design
    and a failed lookup is a non-match, never a crash. *)

open Gql_data

type env = {
  data : Graph.t;
  binding : int array;  (** query node id -> data node, or -1 *)
}

let node_value env qid =
  if qid < 0 || qid >= Array.length env.binding then None
  else
    let dn = env.binding.(qid) in
    if dn < 0 then None else Some (Graph.node_value env.data dn)

let rec eval_operand env ~self (op : Ast.operand) : Value.t option =
  match op with
  | Ast.Const v -> Some v
  | Ast.Self -> self
  | Ast.Node_value qid -> node_value env qid
  | Ast.Arith (aop, a, b) -> (
    match eval_operand env ~self a, eval_operand env ~self b with
    | Some x, Some y ->
      let o =
        match aop with
        | Ast.Add -> `Add
        | Ast.Sub -> `Sub
        | Ast.Mul -> `Mul
        | Ast.Div -> `Div
      in
      Value.arith o x y
    | (Some _ | None), _ -> None)

(* [needle] occurs in [hay] at offset [i], compared in place. *)
let occurs_at ~needle hay i =
  let nl = String.length needle in
  let rec from k = k = nl || (hay.[i + k] = needle.[k] && from (k + 1)) in
  i + nl <= String.length hay && from 0

let contains_sub ~needle hay =
  let last = String.length hay - String.length needle in
  let rec find i = i <= last && (occurs_at ~needle hay i || find (i + 1)) in
  find 0

type compiled = env -> self:Value.t option -> bool
(** A predicate with its regexes compiled.  Build it once per query and
    apply it per candidate or embedding: compiling a regex costs far
    more than running it. *)

let rec compile (p : Ast.predicate) : compiled =
  let on_string a test env ~self =
    match eval_operand env ~self a with
    | Some v -> test (Value.to_string v)
    | None -> false
  in
  match p with
  | Ast.Compare (op, a, b) -> (
    let holds c =
      match op with
      | Ast.Eq -> c = 0
      | Ast.Neq -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
    in
    fun env ~self ->
      match eval_operand env ~self a, eval_operand env ~self b with
      | Some x, Some y -> holds (Value.compare_values x y)
      | (Some _ | None), _ -> false)
  | Ast.Contains_str (a, needle) -> on_string a (contains_sub ~needle)
  | Ast.Starts_with (a, prefix) ->
    on_string a (fun s -> occurs_at ~needle:prefix s 0)
  | Ast.Matches (a, pattern) ->
    let re = Gql_regex.Chre.compile pattern in
    on_string a (Gql_regex.Chre.search re)
  | Ast.And (a, b) ->
    let a = compile a and b = compile b in
    fun env ~self -> a env ~self && b env ~self
  | Ast.Or (a, b) ->
    let a = compile a and b = compile b in
    fun env ~self -> a env ~self || b env ~self
  | Ast.Not a ->
    let a = compile a in
    fun env ~self -> not (a env ~self)

(** Does the predicate only depend on the node itself (no cross-node
    references)?  Such predicates are pushed into candidate selection. *)
let is_local (p : Ast.predicate) = Ast.pred_refs p = []

(** A constant the node's own value must equal for [p] to hold, when one
    is syntactically evident ([self = c], possibly under [And]).  Used to
    narrow index candidates: any node matching [p] also satisfies the
    returned equality, so the value index yields a sound superset. *)
let rec equality_const (p : Ast.predicate) : Value.t option =
  match p with
  | Ast.Compare (Ast.Eq, Ast.Self, Ast.Const v)
  | Ast.Compare (Ast.Eq, Ast.Const v, Ast.Self) ->
    Some v
  | Ast.And (a, b) -> (
    match equality_const a with
    | Some v -> Some v
    | None -> equality_const b)
  | Ast.Compare _ | Ast.Contains_str _ | Ast.Starts_with _ | Ast.Matches _
  | Ast.Or _ | Ast.Not _ ->
    None
