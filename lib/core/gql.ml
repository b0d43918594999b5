(** The public facade: everything a downstream user needs in one module.

    {[
      let db = Gql.load_xml_string xml in
      let result = Gql.run_xmlgl_text db {|xmlgl ... |} in
      print_string (Gql.to_xml_string result);
      Gql.save_rule_svg "rule.svg" program
    ]}

    A {!db} couples the semi-structured data graph (what the visual
    languages query) with the original document and a lazily built XPath
    index (the navigational baseline), so the same loaded data serves
    every engine in the comparison. *)

type db = {
  graph : Gql_data.Graph.t;
  document : Gql_xml.Tree.doc option;
  dtd : Gql_dtd.Ast.t option;
  xpath_index : Gql_xpath.Index.t Lazy.t;
}

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let of_document ?dtd (document : Gql_xml.Tree.doc) : db =
  let dtd =
    match dtd with
    | Some _ -> dtd
    | None -> Gql_dtd.Parse.of_doc document
  in
  let graph, _ = Gql_data.Codec.encode ?dtd document in
  {
    graph;
    document = Some document;
    dtd;
    xpath_index = lazy (Gql_xpath.Index.build document);
  }

let load_xml_string ?dtd (src : string) : db =
  match Gql_xml.Parser.parse_document_result src with
  | Ok document -> of_document ?dtd document
  | Error msg -> fail "XML parse error: %s" msg

let load_xml_file ?dtd path : db =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  load_xml_string ?dtd src

(** Wrap an existing data graph (entity databases that never were XML,
    e.g. the WG-Log restaurant base). *)
let of_graph (graph : Gql_data.Graph.t) : db =
  {
    graph;
    document = None;
    dtd = None;
    xpath_index =
      lazy (fail "this database has no document form; XPath unavailable");
  }

(** Wrap a loaded snapshot ({!Gql_data.Store.load}) without rebuilding
    anything: the index sits in the graph's frozen-index slot, so the
    first query runs on the loaded flat planes instead of triggering a
    re-freeze ([Index.refresh] sees the graph at the index's version). *)
let of_snapshot (graph : Gql_data.Graph.t) (index : Gql_data.Index.t) : db =
  Gql_data.Index.attach graph index;
  of_graph graph

(** Load a snapshot file saved with [gql snapshot save] /
    {!Gql_data.Store.save}.  Raises [Gql_data.Store.Invalid_snapshot] on
    corrupt, truncated or wrong-version files. *)
let load_snapshot_file path : db =
  let graph, index = Gql_data.Store.load ~path in
  of_snapshot graph index

(** Which front-end a query source selects: the first word of the first
    non-empty, non-comment line, compared case-insensitively and as an
    exact word — [WGLOG] parses, [wglogx] does not.  [MATCH] selects
    the textual GPML-style front-end; a WG-Log program whose *labels*
    mention "match" is unaffected because its first word is [wglog]. *)
let language_of_source (source : string) :
    [ `Wglog | `Xmlgl | `Match | `Unknown ] =
  let header =
    String.split_on_char '\n' source
    |> List.map String.trim
    |> List.find_opt (fun l -> l <> "" && l.[0] <> '#')
  in
  match header with
  | None -> `Unknown
  | Some line -> (
    let is_blank c = c = ' ' || c = '\t' || c = '\r' in
    let stop = ref (String.length line) in
    String.iteri (fun i c -> if is_blank c && i < !stop then stop := i) line;
    let first_word = String.sub line 0 !stop in
    match String.lowercase_ascii first_word with
    | "wglog" -> `Wglog
    | "xmlgl" -> `Xmlgl
    | "match" -> `Match
    | _ -> `Unknown)

(* ------------------------------------------------------------------ *)
(* XML-GL                                                              *)
(* ------------------------------------------------------------------ *)

let parse_xmlgl (src : string) : Gql_xmlgl.Ast.program =
  match Gql_lang.Xmlgl_text.parse_program_result src with
  | Ok p -> p
  | Error msg -> fail "XML-GL parse error: %s" msg

(** The current frozen index for [db.graph] (kept in its slot). *)
let index (db : db) : Gql_data.Index.t = Gql_data.Index.refresh db.graph

let run_xmlgl ?domains (db : db) (p : Gql_xmlgl.Ast.program) :
    Gql_xml.Tree.element =
  Gql_xmlgl.Engine.run_program ~index:(index db) ?domains db.graph p

let run_xmlgl_text ?domains (db : db) (src : string) : Gql_xml.Tree.element =
  run_xmlgl ?domains db (parse_xmlgl src)

(** Bindings of the first rule's query part (inspection / testing). *)
let xmlgl_bindings (db : db) (p : Gql_xmlgl.Ast.program) =
  match p.Gql_xmlgl.Ast.rules with
  | [] -> []
  | r :: _ ->
    Gql_xmlgl.Engine.query_bindings ~index:(index db) db.graph
      r.Gql_xmlgl.Ast.query

(** EXPLAIN for the first rule, via the algebra planner. *)
let explain_xmlgl (db : db) (p : Gql_xmlgl.Ast.program) : string =
  match p.Gql_xmlgl.Ast.rules with
  | [] -> "(no rules)"
  | r :: _ ->
    Gql_algebra.Exec.explain_xmlgl ~index:(index db) db.graph
      r.Gql_xmlgl.Ast.query

(* ------------------------------------------------------------------ *)
(* WG-Log                                                              *)
(* ------------------------------------------------------------------ *)

let parse_wglog ?schema (src : string) : Gql_wglog.Ast.program =
  match Gql_lang.Wglog_text.parse_program_result ?schema src with
  | Ok p -> p
  | Error msg -> fail "WG-Log parse error: %s" msg

(** Run a WG-Log program to fixpoint (mutates the database graph, as the
    deductive semantics prescribes). *)
let run_wglog ?strategy ?domains (db : db) (p : Gql_wglog.Ast.program) :
    Gql_wglog.Eval.stats =
  Gql_wglog.Eval.run ?strategy ?domains db.graph p

let run_wglog_text ?schema ?strategy ?domains (db : db) (src : string) :
    Gql_wglog.Eval.stats =
  run_wglog ?strategy ?domains db (parse_wglog ?schema src)

let wglog_goal (db : db) (r : Gql_wglog.Ast.rule) =
  Gql_wglog.Eval.goal ~index:(index db) db.graph r

(** EXPLAIN for the first rule's query part, via the algebra planner
    (the fixpoint itself is not algebraic; this shows its join order). *)
let explain_wglog (db : db) (p : Gql_wglog.Ast.program) : string =
  match p.Gql_wglog.Ast.rules with
  | [] -> "(no rules)"
  | r :: _ -> Gql_algebra.Exec.explain_wglog ~index:(index db) db.graph r

(* ------------------------------------------------------------------ *)
(* MATCH (textual GPML-style front-end)                                *)
(* ------------------------------------------------------------------ *)

let parse_match (src : string) : Gql_match.Ast.query =
  match Gql_match.Parse.parse_result src with
  | Ok q -> q
  | Error msg -> fail "MATCH parse error: %s" msg

let run_match ?domains (db : db) (q : Gql_match.Ast.query) : string * int =
  match Gql_match.Eval.run ~index:(index db) ?domains db.graph q with
  | r -> r
  | exception Gql_match.Compile.Error msg -> fail "MATCH compile error: %s" msg

let run_match_text ?domains (db : db) (src : string) : string * int =
  run_match ?domains db (parse_match src)

let match_bindings (db : db) (q : Gql_match.Ast.query) : int array list =
  match
    Gql_match.Eval.bindings ~index:(index db) db.graph
      (Gql_match.Compile.compile q)
  with
  | r -> r
  | exception Gql_match.Compile.Error msg -> fail "MATCH compile error: %s" msg

let explain_match (db : db) (q : Gql_match.Ast.query) : string =
  match Gql_match.Eval.explain ~index:(index db) db.graph q with
  | r -> r
  | exception Gql_match.Compile.Error msg -> fail "MATCH compile error: %s" msg

(* ------------------------------------------------------------------ *)
(* XPath baseline                                                      *)
(* ------------------------------------------------------------------ *)

let xpath_select (db : db) (expr : string) : Gql_xml.Tree.node list =
  let idx = Lazy.force db.xpath_index in
  List.map (Gql_xpath.Index.to_tree idx) (Gql_xpath.Eval.select_string idx expr)

let xpath_value (db : db) (expr : string) : string =
  let idx = Lazy.force db.xpath_index in
  match Gql_xpath.Eval.eval_string idx expr with
  | Gql_xpath.Eval.Str s -> s
  | Gql_xpath.Eval.Num f -> Printf.sprintf "%g" f
  | Gql_xpath.Eval.Bool b -> string_of_bool b
  | Gql_xpath.Eval.Nodeset ns -> Printf.sprintf "node-set(%d)" (List.length ns)

(* ------------------------------------------------------------------ *)
(* Schemas                                                             *)
(* ------------------------------------------------------------------ *)

let validate_dtd (db : db) : Gql_dtd.Validate.violation list =
  match db.dtd, db.document with
  | Some dtd, Some document -> Gql_dtd.Validate.validate dtd document
  | None, _ -> fail "database has no DTD"
  | _, None -> fail "database has no document form"

let validate_xmlgl_schema (db : db) (s : Gql_xmlgl.Schema.t) =
  Gql_xmlgl.Schema.validate s db.graph

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_xml_string = Gql_xml.Printer.element_to_string_pretty

let rule_diagram_xmlgl ?title (r : Gql_xmlgl.Ast.rule) =
  Gql_visual.Builders.of_xmlgl_rule ?title r

let rule_diagram_wglog ?title (r : Gql_wglog.Ast.rule) =
  Gql_visual.Builders.of_wglog_rule ?title r

let save_svg path diagram = Gql_visual.Svg.write_file path diagram

let render_ascii diagram = Gql_visual.Ascii.render_auto diagram

let data_diagram ?max_nodes (db : db) =
  Gql_visual.Builders.of_data ?max_nodes db.graph

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let stats (db : db) =
  ( Gql_data.Graph.n_nodes db.graph,
    Gql_data.Graph.n_edges db.graph )
