(** Seed-driven inputs for the differential fuzzer.

    Everything a case contains — the document, one XML-GL and one
    WG-Log program, and the side graph + label regex for the
    regular-path oracle — derives from a single integer seed through
    {!Gql_workload.Prng} (splitmix64).  Same seed, same bytes, on any
    machine: a failure report is just a seed plus an oracle name.

    Programs are generated as ASTs through the [Build] APIs and then
    *printed* to the concrete syntax, so every case also round-trips
    through the textual parsers — the same path a served [RUN] takes.
    The generators only emit rules that pass the static checks; the
    corpus of deliberately ill-formed programs lives in [test/corpus/]
    instead, as minimized repros of real crash paths. *)

module Prng = Gql_workload.Prng

type case = {
  seed : int;
  xml : string;  (** the document under test *)
  xmlgl_src : string;  (** a well-formed XML-GL program over it *)
  wglog_src : string;  (** a well-formed WG-Log program over it *)
  graph_seed : int;  (** seed of the labelled digraph of the path oracle *)
  regex_src : string;  (** textual label regex for the path oracle *)
  match_src : string;  (** a well-formed textual MATCH query over [xml] *)
}

let tags = [| "a"; "b"; "c"; "d"; "e"; "item"; "entry"; "node" |]
let pick_tag rng = Prng.pick rng tags

(* --- documents ------------------------------------------------------- *)

let gen_doc rng : string =
  let n = 8 + Prng.int rng 53 in
  let fanout = 2 + Prng.int rng 4 in
  let seed = Prng.int rng 1_000_000 in
  let doc = Gql_workload.Gen.random_tree ~seed ~fanout ~ref_density:0.08 n in
  Gql_xml.Printer.to_string doc

(* --- XML-GL programs -------------------------------------------------- *)

(* Content regexes over the generated text (integers below 1000):
   classes, negation, alternation and star, so the compiled automata
   of every route meet the same shapes. *)
let content_res =
  [| "[1-3][0-9]*"; "(4|7).*"; "[^0-5]"; "\\d(0|5)"; "(1|2)*9"; "[2468]0*[13579]?";
     "5|6[0-4]" |]

let gen_xmlgl rng : string =
  let open Gql_xmlgl.Ast in
  let b = Build.create () in
  let elem () =
    if Prng.int rng 4 = 0 then Build.q_any b () else Build.q_elem b (pick_tag rng)
  in
  (* a chain of element boxes joined by containment or descendant edges *)
  let n0 = elem () in
  let last = ref n0 in
  for _ = 1 to Prng.int rng 3 do
    let nx = elem () in
    if Prng.bool rng then Build.qedge b !last nx else Build.qdeep b !last nx;
    last := nx
  done;
  (* sometimes a content circle, possibly with a predicate *)
  let content =
    if Prng.int rng 2 = 0 then begin
      let pred =
        match Prng.int rng 5 with
        | 0 -> None
        | 1 ->
          Some (Compare (Lt, Self, Const (Gql_data.Value.int (Prng.int rng 1000))))
        | 2 ->
          Some (Compare (Ge, Self, Const (Gql_data.Value.int (Prng.int rng 1000))))
        | 3 -> Some (Contains_str (Self, string_of_int (Prng.int rng 10)))
        | _ -> Some (Matches (Self, Prng.pick rng content_res))
      in
      let c = Build.q_content b ?pred () in
      Build.qedge b !last c;
      Some c
    end
    else None
  in
  (* sometimes the id attribute circle every generated element carries *)
  if Prng.int rng 3 = 0 then begin
    let a = Build.q_attr_node b () in
    Build.qattr b n0 "id" a
  end;
  (* sometimes a negated child *)
  if Prng.int rng 4 = 0 then begin
    let m = Build.q_elem b (pick_tag rng) in
    Build.qabsent b n0 m
  end;
  (* construction: always rooted, always acyclic *)
  (match Prng.int rng 4 with
  | 0 -> Build.root b (Build.c_copy b ~deep:(Prng.bool rng) !last)
  | 1 ->
    let out = Build.c_elem b "out" in
    Build.cedge b ~ord:0 out (Build.c_all b !last);
    Build.root b out
  | 2 ->
    let out = Build.c_elem b "out" in
    let fn = [| Count; Sum; Min; Max; Avg |].(Prng.int rng 5) in
    let source = match content with Some c -> c | None -> !last in
    Build.cedge b ~ord:0 out (Build.c_aggregate b fn source);
    Build.root b out
  | _ ->
    let out = Build.c_elem b "out" in
    let v =
      match content with
      | Some c -> Build.c_value b c
      | None -> Build.c_copy b n0
    in
    Build.cedge b ~ord:0 out v;
    Build.root b out);
  let p = { rules = [ Build.finish b ]; result_root = "result" } in
  (match check_program p with
  | [] -> ()
  | errs ->
    failwith ("casegen produced ill-formed XML-GL: " ^ String.concat "; " errs));
  Gql_lang.Pp.xmlgl_program p

(* --- WG-Log programs --------------------------------------------------- *)

(* Child edges of an encoded document carry the empty name, so the only
   structural navigation expressible over them is the '.' wildcard;
   attribute slots are named ("id" on every generated element). *)
let path_res =
  (* biased toward starred / deep forms: those are the shapes where the
     flat product-automaton engine diverging from the reference would
     actually show (frontier growth, ε-closure over nested closures) *)
  [| "."; ".."; ".+"; ".?"; ".*"; ".+.+"; "..?"; ".?.+"; "(..)+" |]

let gen_wglog rng : string =
  let open Gql_wglog.Ast in
  let b = Build.create () in
  let entity () =
    if Prng.int rng 4 = 0 then Build.any_entity b ()
    else Build.entity b (pick_tag rng)
  in
  let n0 = entity () in
  let cond =
    match Prng.int rng 3 with
    | 0 -> []
    | 1 -> [ Re (Printf.sprintf "n%d" (Prng.int rng 10)) ]
    | _ -> [ Cmp (Neq, Gql_data.Value.string "n1") ]
  in
  let v = Build.value b ~cond () in
  Build.edge b ~label:"id" n0 v;
  if Prng.int rng 2 = 0 then begin
    let n1 = entity () in
    let re = Gql_lang.Label_re.parse (Prng.pick rng path_res) in
    Build.regex b re n0 n1
  end;
  if Prng.int rng 5 = 0 then Build.negated b ~label:"ref" n0 (Build.any_entity b ());
  (match Prng.int rng 3 with
  | 0 -> () (* pure goal *)
  | 1 ->
    let e = Build.entity b ~role:Construct "derived" in
    Build.derive b ~label:"marked" e n0
  | _ -> Build.collect b (Build.entity b ~role:Construct "bag") n0);
  let p = { schema = None; rules = [ Build.finish b ] } in
  (match check_program p with
  | [] -> ()
  | errs ->
    failwith ("casegen produced ill-formed WG-Log: " ^ String.concat "; " errs));
  Gql_lang.Pp.wglog_program p

(* --- textual MATCH queries --------------------------------------------- *)

(* Over an encoded document, containment edges carry the empty name (so
   only [-[]->] and path wildcards traverse them), attribute slots are
   named ("id" on every generated element, "ref" sometimes), and
   complex-node labels are the element tags.  The generator builds an
   AST and prints it, so every case also exercises {!Gql_match.Pp} and
   the parser — the same route a served RUN takes. *)
let match_path_specs =
  [| "."; ".."; ".+"; ".?"; "id|ref"; ".*"; "(id|ref)*"; ".+.?"; "id*ref?"; ".."; "(.id?)+" |]

let gen_match rng : string =
  let open Gql_match.Ast in
  let nv = ref 0 in
  let vars = ref [] in
  let fresh_var () =
    let v = Printf.sprintf "v%d" !nv in
    incr nv;
    vars := v :: !vars;
    v
  in
  let pick_var () = List.nth !vars (Prng.int rng (List.length !vars)) in
  let fresh_node ~label_one_in =
    let l = if Prng.int rng label_one_in = 0 then Some (pick_tag rng) else None in
    { n_var = Some (fresh_var ()); n_label = l }
  in
  let dst_node () =
    if Prng.int rng 4 = 0 then
      (* anonymous: still constrains the pattern, cannot be returned *)
      { n_var = None;
        n_label = (if Prng.bool rng then Some (pick_tag rng) else None) }
    else fresh_node ~label_one_in:2
  in
  let edge () =
    let e_var =
      if Prng.int rng 6 = 0 then Some (Printf.sprintf "e%d" (Prng.int rng 10))
      else None
    in
    match Prng.int rng 8 with
    | 0 | 1 | 2 -> { e_var; e_spec = Any; e_dir = Out }
    | 3 -> { e_var; e_spec = Any; e_dir = In }
    | 4 -> { e_var; e_spec = Label "id"; e_dir = Out }
    | 5 -> { e_var; e_spec = Label "ref"; e_dir = Out }
    (* no In-direction path edges: backward closure over a path regex
       costs a whole-graph scan per binding, and adds no coverage *)
    | _ -> { e_var; e_spec = Regex (Prng.pick rng match_path_specs); e_dir = Out }
  in
  let chain_from head n_hops =
    { head; hops = List.init n_hops (fun _ -> (edge (), dst_node ())) }
  in
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  add (Match (chain_from (fresh_node ~label_one_in:2) (1 + Prng.int rng 3)));
  (* sometimes a second chain, anchored on a bound variable so the
     pattern stays connected (no cross-product blow-up) *)
  if Prng.int rng 3 = 0 then
    add
      (Match (chain_from { n_var = Some (pick_var ()); n_label = None } 1));
  if Prng.int rng 3 = 0 then begin
    let cond () =
      let v = pick_var () in
      match Prng.int rng 5 with
      | 0 -> { lhs = Var v; op = Ne; rhs = Lit (Gql_data.Value.string "n1") }
      | 1 -> { lhs = Var v; op = Lt; rhs = Lit (Gql_data.Value.int (Prng.int rng 1000)) }
      | 2 -> { lhs = Var v; op = Ge; rhs = Lit (Gql_data.Value.int (Prng.int rng 1000)) }
      | 3 -> { lhs = Var v; op = Eq; rhs = Var (pick_var ()) }
      | _ ->
        { lhs = Var v; op = Le;
          rhs = Lit (Gql_data.Value.Float (float_of_int (Prng.int rng 100) /. 4.)) }
    in
    let c0 = cond () in
    add (Where (if Prng.int rng 3 = 0 then [ c0; cond () ] else [ c0 ]))
  end;
  if Prng.int rng 4 = 0 then begin
    let a = { n_var = Some (pick_var ()); n_label = None } in
    let inner =
      if Prng.bool rng then
        (* both endpoints bound: lowers to an in-search Negated edge *)
        { head = a;
          hops =
            [ ( { e_var = None;
                  e_spec = (if Prng.bool rng then Any else Label "ref");
                  e_dir = Out },
                { n_var = Some (pick_var ()); n_label = None } ) ] }
      else
        (* fresh labelled endpoint: becomes an exists-subpattern residual *)
        { head = a;
          hops =
            [ ( { e_var = None; e_spec = Any; e_dir = Out },
                { n_var = None; n_label = Some (pick_tag rng) } ) ] }
    in
    add (Not_exists inner)
  end;
  let pool = List.rev !vars in
  let n_rets = 1 + Prng.int rng (min 2 (List.length pool)) in
  let returns =
    List.filteri (fun i _ -> i < n_rets) pool
    |> List.map (fun v -> if Prng.bool rng then Node v else Value v)
  in
  let q = { clauses = List.rev !clauses; returns } in
  Gql_match.Pp.query q

(* --- label regexes for the path oracle ---------------------------------- *)

let regex_labels = [| "a"; "b"; "c"; "." |]

let gen_regex rng : string =
  let buf = Buffer.create 16 in
  let rec atom depth =
    if depth < 3 && Prng.int rng 3 = 0 then begin
      Buffer.add_char buf '(';
      alt (depth + 1);
      Buffer.add_char buf ')'
    end
    else Buffer.add_string buf (Prng.pick rng regex_labels)
  and postfix depth =
    atom depth;
    (* starred forms dominate: closure nesting is where the flat
       engine's ε-elimination and frontier reuse earn their keep *)
    match Prng.int rng 5 with
    | 0 | 1 -> Buffer.add_char buf '*'
    | 2 -> Buffer.add_char buf '+'
    | 3 -> Buffer.add_char buf '?'
    | _ -> ()
  and seq depth =
    postfix depth;
    while Prng.int rng 2 = 0 do
      postfix depth
    done
  and alt depth =
    seq depth;
    if Prng.int rng 3 = 0 then begin
      Buffer.add_char buf '|';
      seq depth
    end
  in
  alt 0;
  Buffer.contents buf

(** The labelled digraph of the regular-path oracle, regenerable from
    its own seed (so a repro needs only [graph_seed], not the edges). *)
let gen_graph ~graph_seed : (unit, string) Gql_graph.Digraph.t =
  let rng = Prng.create graph_seed in
  let n = 4 + Prng.int rng 21 in
  let g = Gql_graph.Digraph.create ~dummy:() in
  let nodes = Array.init n (fun _ -> Gql_graph.Digraph.add_node g ()) in
  let m = n * (1 + Prng.int rng 3) in
  for _ = 1 to m do
    let src = nodes.(Prng.int rng n) and dst = nodes.(Prng.int rng n) in
    Gql_graph.Digraph.add_edge g ~src ~dst regex_labels.(Prng.int rng 3)
  done;
  g

(* --- a full case ------------------------------------------------------- *)

let generate ~seed : case =
  let rng = Prng.create seed in
  let xml = gen_doc rng in
  let xmlgl_src = gen_xmlgl rng in
  let wglog_src = gen_wglog rng in
  let graph_seed = Prng.int rng 1_000_000 in
  let regex_src = gen_regex rng in
  (* drawn last so the artifacts above keep their per-seed bytes from
     before the MATCH front-end existed *)
  let match_src = gen_match rng in
  { seed; xml; xmlgl_src; wglog_src; graph_seed; regex_src; match_src }
