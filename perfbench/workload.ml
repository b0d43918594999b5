(* The inputs of the three workloads: served documents and request
   streams, all derived from the --seed argument.  The server only ever
   sees the files and request texts built here. *)

module Gen = Gql_workload.Gen
module Prng = Gql_workload.Prng
module Queries = Gql_workload.Queries

type lang = Xmlgl | Wglog | Match

let lang_name = function Xmlgl -> "xmlgl" | Wglog -> "wglog" | Match -> "match"

(* [kind] is the request's traffic class: the suite query it
   instantiates, with "@inbox" when it reads an inbox. *)
type request =
  | Run of { kind : string; lang : lang; doc : string; schema : string option; source : string }
  | Load of { doc : string; xml : string }

let kind = function Run { kind; _ } -> kind | Load _ -> "LOAD"

let payload = function
  | Run { doc; schema; source; _ } ->
    Gql_server.Protocol.render_request
      (Gql_server.Protocol.Run
         { doc; query = `Source source; schema; deadline_ms = None })
  | Load { doc; xml } ->
    Gql_server.Protocol.render_request (Gql_server.Protocol.Load { doc; xml })

let lang_of_source src =
  match Gql_core.Gql.language_of_source src with
  | `Xmlgl -> Xmlgl
  | `Wglog -> Wglog
  | `Match -> Match
  | `Unknown -> failwith "workload: query of unknown language"

(* ------------------------------------------------------------------ *)
(* Served documents                                                    *)
(* ------------------------------------------------------------------ *)

type doc = {
  name : string;
  path : string;  (** what `gql serve -d` is given *)
  snap : bool;
  nodes : int;
  edges : int;
  bytes : int;  (** XML text or snapshot file size *)
}

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let xml_doc dir name (d : Gql_xml.Tree.doc) =
  let text = Gql_xml.Printer.to_string d in
  let path = Filename.concat dir (name ^ ".xml") in
  write_file path text;
  let nodes, edges = Gql_core.Gql.stats (Gql_core.Gql.load_xml_string text) in
  { name; path; snap = false; nodes; edges; bytes = String.length text }

let snap_doc dir name (g : Gql_data.Graph.t) =
  let path = Filename.concat dir (name ^ ".snap") in
  let bytes = Gql_data.Store.save ~path (Gql_data.Index.build g) in
  let nodes, edges = Gql_core.Gql.stats (Gql_core.Gql.of_graph g) in
  { name; path; snap = true; nodes; edges; bytes }

(* The four suite documents of [Queries.server_suite], [scale] times the
   sizes the E12 served bench uses (bibliography 100, people 400,
   greengrocer 800, restaurants 200); restaurants is served as a .snap. *)
let suite_docs dir ~seed ~scale =
  let s k = (seed * 1000) + k in
  [
    xml_doc dir "bibliography" (Gen.bibliography ~seed:(s 61) (100 * scale));
    xml_doc dir "people" (Gen.people ~seed:(s 62) (400 * scale));
    xml_doc dir "greengrocer" (Gen.greengrocer ~seed:(s 63) (800 * scale));
    snap_doc dir "restaurants" (Gen.restaurants ~seed:(s 64) (200 * scale));
  ]

(* A freshly generated bibliography for LOAD traffic: a new seed per
   version, so every LOAD is new content (a real index build and cache
   purge, never the registry's digest-reuse path). *)
let fresh_bibliography ~seed ~version n =
  Gql_xml.Printer.to_string
    (Gen.bibliography ~seed:((seed * 1_000_003) + (version * 7919) + 1) n)

(* ------------------------------------------------------------------ *)
(* cold-large: one big graph served from a .snap                       *)
(* ------------------------------------------------------------------ *)

(* [chains] `next` chains of [chain_len] nodes (a Head then Cells) for
   long regular-path closures, plus [groups] hub Groups whose [members]
   Members follow a harmonic (skewed) size distribution; each Member
   points `in` to a seed-drawn chain Head, which is what the hub join
   walks.  Shape and size are fixed; the seed moves only the edges. *)
let large_graph ~seed =
  let open Gql_data in
  let chains = 48 and chain_len = 1250 and groups = 500 and members = 190_000 in
  let rng = Prng.create ((seed * 1000) + 71) in
  let g = Graph.create () in
  let heads =
    Array.init chains (fun c ->
        let head = Graph.add_complex g "Head" in
        if c = 0 then Graph.add_root g head;
        let prev = ref head in
        for _ = 2 to chain_len do
          let cell = Graph.add_complex g "Cell" in
          Graph.link g ~src:!prev ~dst:cell (Graph.rel_edge "next");
          prev := cell
        done;
        head)
  in
  let harmonic =
    let h = ref 0.0 in
    for i = 1 to groups do
      h := !h +. (1.0 /. float_of_int i)
    done;
    !h
  in
  let left = ref members in
  for i = 0 to groups - 1 do
    let grp = Graph.add_complex g "Group" in
    let share =
      if i = groups - 1 then !left
      else
        min !left
          (max 1
             (int_of_float
                (float_of_int members /. (float_of_int (i + 1) *. harmonic))))
    in
    left := !left - share;
    for _ = 1 to share do
      let m = Graph.add_complex g "Member" in
      Graph.link g ~src:grp ~dst:m (Graph.rel_edge "member");
      Graph.link g ~src:m ~dst:heads.(Prng.int rng chains) (Graph.rel_edge "in")
    done
  done;
  g

(* The fixed cold-large batch, sent once per restart in this order: the
   path closure (the first answer after a restart, which also pays the
   lazy thaw), a small MATCH, the hub join, an XML-GL selection and the
   WG-Log rule.  Odd counts per language (3 MATCH, 1 XML-GL, 1 WG-Log)
   and well separated costs keep every median on one request type, not
   between two. *)
let large_batch : request list =
  let run kind source = Run { kind; lang = lang_of_source source; doc = "large"; schema = None; source } in
  [
    run "closure" "MATCH (h:Head)-[:next+]->(c:Cell)\nRETURN h, c\n";
    run "hop" "MATCH (h:Head)-[:next]->(c:Cell)\nRETURN h, c\n";
    run "hub" "MATCH (g:Group)-[:member]->(m:Member)-[:in]->(h:Head)\nRETURN g, h\n";
    run "groups"
      "xmlgl\nresult groups\nrule\nquery\n  node $g elem Group\nconstruct\n  node c copy $g\n  root c\nend\n";
    run "pathedge"
      "wglog\nrule\n  node h Head\n  node t Cell\n  pathedge h next+ t\n  cedge h reaches t\nend\n";
  ]

(* ------------------------------------------------------------------ *)
(* Request streams                                                     *)
(* ------------------------------------------------------------------ *)

(* A connection's endless stream: each call gives the next request and
   its payload.  Streams are drawn while the connection runs, so no
   request rate can exhaust them. *)
type stream = unit -> request * string

let with_payload req = (req, payload req)

(* Endless draws from [Queries.server_mix], the repo's traffic model,
   taken in chunks of 1024 under per-chunk seeds derived from [seed]. *)
let mix_draws ~seed =
  let buf = ref [] and chunk = ref 0 in
  fun () ->
    if !buf = [] then begin
      buf := Queries.server_mix ~seed:((seed * 4096) + !chunk) 1024;
      incr chunk
    end;
    let q = List.hd !buf in
    buf := List.tl !buf;
    q

(* ------------------------------------------------------------------ *)
(* hot-mix: Queries.server_mix against the suite documents             *)
(* ------------------------------------------------------------------ *)

let of_server_query (q : Queries.server_query) =
  Run { kind = q.sq_name; lang = lang_of_source q.source; doc = q.doc; schema = q.schema;
        source = q.source }

(* Every suite query once: the cold batch each hot-mix spawn answers
   first, which also fills the result cache before the timed window. *)
let hot_batch = List.map of_server_query Queries.server_suite

(* Connection [conn]'s draws from [Queries.server_mix]; they share one
   request and payload per suite query. *)
let hot_stream ~seed ~conn : stream =
  let distinct = List.map (fun q -> (q, with_payload (of_server_query q))) Queries.server_suite in
  let draw = mix_draws ~seed:((seed * 16) + conn) in
  fun () -> List.assq (draw ()) distinct

(* ------------------------------------------------------------------ *)
(* adhoc-mix: parameterised suite queries, every text unique            *)
(* ------------------------------------------------------------------ *)

(* The parameterised form of every suite query: its source with one
   constant substituted.  Where the query holds a value slot the
   constant is a threshold a hair above the suite's own, or a value
   literal the data never holds, drawn from the seed; the queries
   without one name their result root instead.  Either way the answer
   keeps the suite query's size (less any value equal to a threshold),
   so each form costs what its suite query costs.  Every constant ends in a token unique to its stream
   and position, so the prepared, plan and result caches miss because
   the traffic differs. *)
type constant = Threshold of int | Literal | Token

let constant rng tok = function
  | Threshold base -> Printf.sprintf "%d.%s" base tok
  | Literal -> Printf.sprintf "zz%04d-%s" (Prng.int rng 10_000) tok
  | Token -> tok

(* Each edit replaces the first [pat] in the suite source with [by c],
   for the constant [c]. *)
let edits : (string * (string * (string -> string)) list * constant) list =
  let p = Printf.sprintf in
  [
    ("Q1", [ ("result books", p "result books-%s") ], Token);
    ("Q2", [ ("self > 40", p "self > %s") ], Threshold 40);
    ("Q3", [ ("result RESULT", p "result RESULT-%s") ], Token);
    ("Q4", [ ("node $cval content\n", p "node $cval content where not (self = \"%s\")\n") ], Literal);
    ("Q5", [ ("self ~ /Van.*/", p "self ~ /Van.*/ and not (self = \"%s\")") ], Literal);
    ("Q6", [ ("result homeless", p "result homeless-%s") ], Token);
    ("Q7", [ ("result all-last-names", p "result all-last-names-%s") ], Token);
    ("Q8", [ ("result well-ordered", p "result well-ordered-%s") ], Token);
    ("Q9", [ ("node $ev content\n", p "node $ev content where not (self = \"%s\")\n") ], Literal);
    ( "Q10",
      [ ("  node m Menu\n", p "  node m Menu\n  value p where > %s\n");
        ("  edge r offers m\n", fun _ -> "  edge r offers m\n  edge m price p\n") ],
      Threshold 0 );
    ("M1", [ ("RETURN", p "WHERE t.value <> \"%s\"\nRETURN") ], Literal);
    ("M2", [ ("RETURN", p "WHERE n.value <> \"%s\"\nRETURN") ], Literal);
    ("M3", [ ("RETURN", p "WHERE n.value <> \"%s\"\nRETURN") ], Literal);
    ("M4", [ ("\"nowhere\"", p "\"%s\"") ], Literal);
    ("M5", [ (">= 20", p ">= %s") ], Threshold 20);
  ]

let replace_first src ~pat ~by =
  let n = String.length pat in
  let rec find i =
    if i + n > String.length src then failwith ("workload: no " ^ String.escaped pat ^ " in a suite query")
    else if String.sub src i n = pat then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ by ^ String.sub src (i + n) (String.length src - i - n)

(* The instance of suite query [q] on [doc] with a constant drawn from
   [rng]; [tok] makes it unique. *)
let instance rng ~tok ?doc (q : Queries.server_query) =
  let subs, form =
    match List.find_opt (fun (n, _, _) -> n = q.sq_name) edits with
    | Some (_, subs, form) -> (subs, form)
    | None -> failwith ("workload: no parameterised form of " ^ q.sq_name)
  in
  let c = constant rng tok form in
  let source = List.fold_left (fun src (pat, by) -> replace_first src ~pat ~by:(by c)) q.source subs in
  let kind = if doc = None then q.sq_name else q.sq_name ^ "@inbox" in
  Run { kind; lang = lang_of_source source; doc = Option.value doc ~default:q.doc; schema = q.schema;
        source }

let inbox k = Printf.sprintf "inbox-%d" k

(* The suite queries an inbox read draws from. *)
let on_bib = List.filter (fun (q : Queries.server_query) -> q.doc = "bibliography") Queries.server_suite

(* Inbox documents have the bibliography's adhoc size, so a read of an
   inbox costs what it costs on the bibliography. *)
let adhoc_inbox_books = 400

(* A connection LOADs a new version of its inbox once per this many
   requests; the request after each LOAD reads that inbox. *)
let adhoc_load_every = 30

let inbox_xml ~seed ~conn version =
  fresh_bibliography ~seed:((seed * 16) + conn) ~version adhoc_inbox_books

(* The traffic model's share of each kind of request. *)
let hot_share _ = 1.0 /. float_of_int (List.length Queries.server_suite)

let adhoc_share k =
  let every = float_of_int adhoc_load_every in
  if k = "LOAD" then 1.0 /. every
  else if String.ends_with ~suffix:"@inbox" k then 1.0 /. every /. float_of_int (List.length on_bib)
  else (every -. 2.0) /. every *. hot_share k

let token ~tag n = Printf.sprintf "%d%07d" tag n

(* One instance of each suite query, in suite order, with constants from
   a fixed stream: the batch every adhoc-mix spawn answers first, the
   same work under every seed.  Its tokens are tagged 9, which no
   connection uses. *)
let adhoc_batch =
  let rng = Prng.create 0xba7c4 in
  List.mapi (fun i q -> instance rng ~tok:(token ~tag:9 i) q) Queries.server_suite

(* Connection [conn]'s stream: a LOAD of the next version of its inbox,
   a read of that inbox (a suite query on the bibliography, drawn
   uniformly), then [adhoc_load_every - 2] draws from
   [Queries.server_mix], and again.  The first [pool] inbox versions are
   generated ahead, so the LOAD texts are not built while the window is
   timed; later versions are built when needed. *)
let adhoc_stream ~seed ~conn ~pool : stream =
  if conn > 7 then invalid_arg "adhoc_stream: at most 8 connections";
  let ahead = Array.init pool (fun v -> inbox_xml ~seed ~conn (v + 1)) in
  let rng = Prng.create ((seed * 1000) + 500 + conn) in
  let draw = mix_draws ~seed:((seed * 16) + conn) in
  let n = ref 0 in
  fun () ->
    let i = !n in
    incr n;
    let tok = token ~tag:(conn + 1) i in
    let req =
      match i mod adhoc_load_every with
      | 0 ->
        let v = (i / adhoc_load_every) + 1 in
        Load { doc = inbox conn; xml = (if v <= pool then ahead.(v - 1) else inbox_xml ~seed ~conn v) }
      | 1 -> instance rng ~tok ~doc:(inbox conn) (Prng.pick_list rng on_bib)
      | _ -> instance rng ~tok (draw ())
    in
    with_payload req
