(** Persistent snapshot store: one page-aligned, sectioned, checksummed
    file holding a frozen {!Index}'s flat planes — CSR offsets and
    neighbour/label arrays, the node-symbol plane, the {!Symtab} string
    table, and every per-sym {!Gql_graph.Iset} posting pool — so a
    [gql serve] restart loads a snapshot by mapping and blitting arrays
    instead of re-parsing, re-freezing and re-indexing.

    Layout: a 4 KiB header page (magic, format version, word-layout tag,
    section table with per-section checksums, whole-header checksum)
    followed by ~50 page-aligned sections.  Elements are native OCaml
    ints stored as 8-byte words, IEEE float64 words, or raw bytes; every
    section is checksummed with the same word-mix on save and verified
    on load, and all structural invariants (monotone offsets, sorted
    keys, in-range ids) are re-validated before anything is trusted, so
    a corrupt, truncated or wrong-version file answers a typed
    {!Invalid_snapshot} — never a crash or a silent wrong answer.

    Loading is zero-copy where the representation allows and one blit
    per section where [int array] is load-bearing (Iset/CSR interop —
    the bench's E17 records both the map+verify and the materialise
    cost).  Hot planes (CSR, adjacency postings, label postings) are
    blitted eagerly; cold lanes stay on disk behind captured Bigarray
    views and materialise on first demand: the value table and the
    per-name edge-pair table become [V_lazy]/[E_lazy] cells in the
    index, the mutable {!Digraph} thaws behind {!Graph.of_thaw}, and
    the regular-path planes/specs/memo rebuild on demand exactly as a
    fresh build's would. *)

module Iset = Gql_graph.Iset

exception
  Invalid_snapshot of {
    path : string;
    section : string;
    offset : int;  (** byte offset of the offending section / field *)
    reason : string;
  }

let describe = function
  | Invalid_snapshot { path; section; offset; reason } ->
    Printf.sprintf "invalid snapshot %s (section %s, offset %d): %s" path
      section offset reason
  | e -> Printexc.to_string e

let () =
  Printexc.register_printer (function
    | Invalid_snapshot _ as e -> Some (describe e)
    | _ -> None)

let err ~path ~section ~offset fmt =
  Printf.ksprintf
    (fun reason -> raise (Invalid_snapshot { path; section; offset; reason }))
    fmt

(* --- format constants -------------------------------------------------- *)

let page = 4096
let magic = "GQLSNAP1"
let format_version = 1

(* Written through the word (Bigarray int) view and compared on load:
   catches endianness / word-layout mismatches between writer and
   reader, since the header proper is parsed as explicit little-endian
   bytes. *)
let word_tag = 0x6751_5357

type skind = KW  (** native-int words *) | KF  (** float64 *) | KB  (** bytes *)

(* Section ids as they appear in the header table. *)
let s_meta = 1
let s_roots = 2
let s_sym_off = 3
let s_sym_blob = 4
let s_node_sym = 5
let s_out_off = 6
let s_out_dst = 7
let s_out_erec = 8
let s_in_off = 9
let s_in_src = 10
let s_in_erec = 11
let s_erec_name = 12
let s_erec_kind = 13
let s_erec_ord = 14
let s_erec_gen = 15
let s_atom_tag = 16
let s_atom_aux = 17
let s_atom_flt = 18
let s_astr_off = 19
let s_astr_blob = 20
let s_lbl_keys = 21
let s_lbl_off = 22
let s_lbl_pool = 23
let s_adjo_keys = 24
let s_adjo_off = 25
let s_adjo_pool = 26
let s_adji_keys = 27
let s_adji_off = 28
let s_adji_pool = 29
let s_attr_keys = 30
let s_attr_off = 31
let s_attr_pool = 32
let s_childo_off = 33
let s_childo_pool = 34
let s_childi_off = 35
let s_childi_pool = 36
let s_refo_off = 37
let s_refo_pool = 38
let s_refi_off = 39
let s_refi_pool = 40
let s_valn_keys = 41
let s_valn_off = 42
let s_valn_pool = 43
let s_vals_koff = 44
let s_vals_kblob = 45
let s_vals_off = 46
let s_vals_pool = 47
let s_edgn_keys = 48
let s_edgn_off = 49
let s_edgn_pool = 50

let section_specs : (int * string * skind) array =
  [|
    (s_meta, "meta", KW);
    (s_roots, "roots", KW);
    (s_sym_off, "sym_off", KW);
    (s_sym_blob, "sym_blob", KB);
    (s_node_sym, "node_sym", KW);
    (s_out_off, "out_off", KW);
    (s_out_dst, "out_dst", KW);
    (s_out_erec, "out_erec", KW);
    (s_in_off, "in_off", KW);
    (s_in_src, "in_src", KW);
    (s_in_erec, "in_erec", KW);
    (s_erec_name, "erec_name", KW);
    (s_erec_kind, "erec_kind", KW);
    (s_erec_ord, "erec_ord", KW);
    (s_erec_gen, "erec_gen", KW);
    (s_atom_tag, "atom_tag", KW);
    (s_atom_aux, "atom_aux", KW);
    (s_atom_flt, "atom_flt", KF);
    (s_astr_off, "astr_off", KW);
    (s_astr_blob, "astr_blob", KB);
    (s_lbl_keys, "lbl_keys", KW);
    (s_lbl_off, "lbl_off", KW);
    (s_lbl_pool, "lbl_pool", KW);
    (s_adjo_keys, "adjo_keys", KW);
    (s_adjo_off, "adjo_off", KW);
    (s_adjo_pool, "adjo_pool", KW);
    (s_adji_keys, "adji_keys", KW);
    (s_adji_off, "adji_off", KW);
    (s_adji_pool, "adji_pool", KW);
    (s_attr_keys, "attr_keys", KW);
    (s_attr_off, "attr_off", KW);
    (s_attr_pool, "attr_pool", KW);
    (s_childo_off, "childo_off", KW);
    (s_childo_pool, "childo_pool", KW);
    (s_childi_off, "childi_off", KW);
    (s_childi_pool, "childi_pool", KW);
    (s_refo_off, "refo_off", KW);
    (s_refo_pool, "refo_pool", KW);
    (s_refi_off, "refi_off", KW);
    (s_refi_pool, "refi_pool", KW);
    (s_valn_keys, "valn_keys", KF);
    (s_valn_off, "valn_off", KW);
    (s_valn_pool, "valn_pool", KW);
    (s_vals_koff, "vals_koff", KW);
    (s_vals_kblob, "vals_kblob", KB);
    (s_vals_off, "vals_off", KW);
    (s_vals_pool, "vals_pool", KW);
    (s_edgn_keys, "edgn_keys", KW);
    (s_edgn_off, "edgn_off", KW);
    (s_edgn_pool, "edgn_pool", KW);
  |]

let spec_of_id id =
  let rec go i =
    if i >= Array.length section_specs then None
    else
      let (id', _, _) as s = section_specs.(i) in
      if id' = id then Some s else go (i + 1)
  in
  go 0

let name_of_id id =
  match spec_of_id id with Some (_, n, _) -> n | None -> Printf.sprintf "#%d" id

(* --- counters (served as METRICS lines) -------------------------------- *)

let saves = Atomic.make 0
let loads = Atomic.make 0
let save_us = Atomic.make 0
let load_us = Atomic.make 0
let last_bytes = Atomic.make 0

let note counter us_counter ~us ~bytes =
  Atomic.incr counter;
  ignore (Atomic.fetch_and_add us_counter us);
  Atomic.set last_bytes bytes

(** Counter lines in the serve METRICS [key=value] format, cumulative
    per process (ms totals across all saves/loads). *)
let stats_lines () =
  Printf.sprintf
    "snapshot_saves=%d\nsnapshot_loads=%d\nsnapshot_save_ms=%d\n\
     snapshot_load_ms=%d\nsnapshot_bytes=%d\n"
    (Atomic.get saves) (Atomic.get loads)
    (Atomic.get save_us / 1000)
    (Atomic.get load_us / 1000)
    (Atomic.get last_bytes)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* --- checksums --------------------------------------------------------- *)

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type chars = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* One word-mix for everything: sections are checksummed through the
   word view (so float and byte payloads mix their raw bits), the header
   through its little-endian bytes.  [land max_int] keeps the running
   hash in OCaml-int range on both paths ([Array1.get] of kind [int]
   and [Int64.to_int] both truncate modulo 2^63, so writer and reader
   agree even on corrupt words with the top bit set). *)
let mix h w = ((h * 1_000_003) lxor w) land max_int

(* Four interleaved lanes, folded together at the end: the serial
   multiply chain of a single-lane mix caps checksum throughput at one
   word per multiply latency, and sections total hundreds of MB.  Any
   flipped word still perturbs its lane and therefore the fold. *)
let checksum_words (va : words) lo nwords =
  let h0 = ref 0x1505 and h1 = ref 0x1505 in
  let h2 = ref 0x1505 and h3 = ref 0x1505 in
  let stop = lo + (nwords land lnot 3) in
  let i = ref lo in
  while !i < stop do
    h0 := mix !h0 (Bigarray.Array1.unsafe_get va !i);
    h1 := mix !h1 (Bigarray.Array1.unsafe_get va (!i + 1));
    h2 := mix !h2 (Bigarray.Array1.unsafe_get va (!i + 2));
    h3 := mix !h3 (Bigarray.Array1.unsafe_get va (!i + 3));
    i := !i + 4
  done;
  let h = ref (mix (mix (mix !h0 !h1) !h2) !h3) in
  for j = stop to lo + nwords - 1 do
    h := mix !h (Bigarray.Array1.unsafe_get va j)
  done;
  !h

let checksum_header_bytes (b : Bytes.t) =
  let h = ref 0x1505 in
  for i = 0 to (Bytes.length b / 8) - 1 do
    h := mix !h (Int64.to_int (Bytes.get_int64_le b (8 * i)))
  done;
  !h

let words_of_bytes nbytes = (nbytes + 7) / 8

(* header field slots (byte offsets) *)
let h_version = 8
let h_word_bytes = 16
let h_page = 24
let h_nsections = 32
let h_total = 40
let h_checksum = 48
let h_table = 64
let h_entry = 32 (* bytes per section-table entry: id, off, elems, checksum *)

(* --- save -------------------------------------------------------------- *)

type sec_data = W of int array | F of float array | B of Bytes.t

let sec_bytes = function
  | W a -> 8 * Array.length a
  | F a -> 8 * Array.length a
  | B b -> Bytes.length b

let sec_elems = function
  | W a -> Array.length a
  | F a -> Array.length a
  | B b -> Bytes.length b

let round_page x = (x + page - 1) / page * page

(* Flatten a posting map to (sorted keys, offsets, concatenated pool). *)
let flat_of_postings (p : Index.postings) : int array * int array * int array =
  let items =
    Array.of_list (Index.p_fold (fun k s acc -> (k, s) :: acc) p [])
  in
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) items;
  let nk = Array.length items in
  let keys = Array.make nk 0 in
  let off = Array.make (nk + 1) 0 in
  let total = Array.fold_left (fun acc (_, s) -> acc + Iset.length s) 0 items in
  let pool = Array.make total 0 in
  let w = ref 0 in
  Array.iteri
    (fun i (k, s) ->
      keys.(i) <- k;
      off.(i) <- !w;
      Iset.iter
        (fun v ->
          pool.(!w) <- v;
          incr w)
        s)
    items;
  off.(nk) <- !w;
  (keys, off, pool)

(* Flatten a dense per-node plane to (offsets, pool). *)
let flat_of_dense (d : Index.dense) ~n : int array * int array =
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + Iset.length (Index.d_get d i)
  done;
  let pool = Array.make off.(n) 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    Iset.iter
      (fun v ->
        pool.(!w) <- v;
        incr w)
      (Index.d_get d i)
  done;
  (off, pool)

let blob_of_strings (arr : string array) : int array * Bytes.t =
  let off = Array.make (Array.length arr + 1) 0 in
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i s ->
      off.(i) <- Buffer.length b;
      Buffer.add_string b s)
    arr;
  off.(Array.length arr) <- Buffer.length b;
  (off, Buffer.to_bytes b)

let kind_code : Graph.edge_kind -> int = function
  | Graph.Child -> 0
  | Graph.Attribute -> 1
  | Graph.Ref -> 2
  | Graph.Rel -> 3

(** Serialize the frozen snapshot behind [idx] to [path]; returns the
    file size in bytes.  The mutable digraph is never consulted (and a
    loaded, still-unthawed snapshot can be re-saved): everything comes
    from the CSR planes and the index postings. *)
let save ~path (idx : Index.t) : int =
  let t0 = now_us () in
  let csr = idx.Index.csr in
  let n = Gql_graph.Csr.n_nodes csr in
  let m = Gql_graph.Csr.n_edges csr in
  let syms = Symtab.to_array idx.Index.symtab in
  let n_syms = Array.length syms in
  let sym_id name =
    match Symtab.find idx.Index.symtab name with
    | Some s -> s
    | None -> invalid_arg "Store.save: edge name missing from symtab"
  in
  (* Deduplicate edge records: the planes store small record ids and the
     loader re-materialises one shared record per distinct
     (name, kind, ord, gen). *)
  let erec_tbl : (string * int * int option * int, int) Hashtbl.t =
    Hashtbl.create 64
  in
  let erec_rev = ref [] in
  let erec_n = ref 0 in
  let erec_id (e : Graph.edge) =
    let key = (e.Graph.name, kind_code e.Graph.kind, e.Graph.ord, e.Graph.gen) in
    match Hashtbl.find_opt erec_tbl key with
    | Some id -> id
    | None ->
      let id = !erec_n in
      incr erec_n;
      Hashtbl.replace erec_tbl key id;
      erec_rev := e :: !erec_rev;
      id
  in
  let out_erec = Array.map erec_id csr.Gql_graph.Csr.out_lab in
  let in_erec = Array.map erec_id csr.Gql_graph.Csr.in_lab in
  let erecs = Array.of_list (List.rev !erec_rev) in
  let u = Array.length erecs in
  let erec_name = Array.map (fun e -> sym_id e.Graph.name) erecs in
  let erec_kind =
    Array.map
      (fun e ->
        kind_code e.Graph.kind
        lor (match e.Graph.ord with Some _ -> 4 | None -> 0))
      erecs
  in
  let erec_ord =
    Array.map (fun e -> match e.Graph.ord with Some o -> o | None -> 0) erecs
  in
  let erec_gen = Array.map (fun e -> e.Graph.gen) erecs in
  (* Atom payloads in ascending node order; strings deduplicated. *)
  let astr_tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let astr_rev = ref [] in
  let astr_n = ref 0 in
  let astr_id s =
    match Hashtbl.find_opt astr_tbl s with
    | Some id -> id
    | None ->
      let id = !astr_n in
      incr astr_n;
      Hashtbl.replace astr_tbl s id;
      astr_rev := s :: !astr_rev;
      id
  in
  let tags = ref [] and auxs = ref [] and flts = ref [] in
  let n_flt = ref 0 and n_atoms = ref 0 in
  for i = n - 1 downto 0 do
    match Gql_graph.Csr.payload csr i with
    | Graph.Complex _ -> ()
    | Graph.Atom v ->
      incr n_atoms;
      let tag, aux =
        match v with
        | Value.String s -> (0, astr_id s)
        | Value.Int k -> (1, k)
        | Value.Float f ->
          flts := f :: !flts;
          incr n_flt;
          (2, !n_flt - 1)
        | Value.Bool b -> (3, if b then 1 else 0)
      in
      tags := tag :: !tags;
      auxs := aux :: !auxs
  done;
  (* the loop ran high-to-low, so the consed tag/aux lists come out in
     ascending node order; reversing the float list likewise puts pool
     slot [k] under the atom that was assigned aux [k] *)
  let atom_tag = Array.of_list !tags in
  let atom_aux = Array.of_list !auxs in
  let atom_flt = Array.of_list (List.rev !flts) in
  let astr_off, astr_blob =
    blob_of_strings (Array.of_list (List.rev !astr_rev))
  in
  let sym_off, sym_blob = blob_of_strings syms in
  (* node-symbol plane (and implicit node kinds: -1 = atom) *)
  let node_sym = Array.init n (fun i -> Gql_graph.Csr.node_sym csr i) in
  (* postings and dense planes *)
  let lbl_keys, lbl_off, lbl_pool = flat_of_postings idx.Index.by_label in
  let adjo_keys, adjo_off, adjo_pool = flat_of_postings idx.Index.out_by_name in
  let adji_keys, adji_off, adji_pool = flat_of_postings idx.Index.in_by_name in
  let attr_keys, attr_off, attr_pool = flat_of_postings idx.Index.attr_out in
  let childo_off, childo_pool = flat_of_dense idx.Index.child_out ~n in
  let childi_off, childi_pool = flat_of_dense idx.Index.child_in ~n in
  let refo_off, refo_pool = flat_of_dense idx.Index.ref_out ~n in
  let refi_off, refi_pool = flat_of_dense idx.Index.ref_in ~n in
  (* value table, split into numeric and textual buckets *)
  let vtbl = Index.by_value_tbl idx in
  let nums = ref [] and strs = ref [] in
  Hashtbl.iter
    (fun k s ->
      match k with
      | Index.Num f -> nums := (f, s) :: !nums
      | Index.Str str -> strs := (str, s) :: !strs)
    vtbl;
  let nums = Array.of_list !nums and strs = Array.of_list !strs in
  Array.sort (fun (a, _) (b, _) -> compare (a : float) b) nums;
  Array.sort (fun (a, _) (b, _) -> compare (a : string) b) strs;
  let concat_sets items =
    let nk = Array.length items in
    let off = Array.make (nk + 1) 0 in
    let total =
      Array.fold_left (fun acc (_, s) -> acc + Iset.length s) 0 items
    in
    let pool = Array.make total 0 in
    let w = ref 0 in
    Array.iteri
      (fun i (_, s) ->
        off.(i) <- !w;
        Iset.iter
          (fun v ->
            pool.(!w) <- v;
            incr w)
          s)
      items;
    off.(nk) <- !w;
    (off, pool)
  in
  let valn_keys = Array.map fst nums in
  let valn_off, valn_pool = concat_sets nums in
  let vals_koff, vals_kblob = blob_of_strings (Array.map fst strs) in
  let vals_off, vals_pool = concat_sets strs in
  (* per-name edge pairs, interleaved (src, dst) *)
  let etbl = Index.edges_tbl idx in
  let edges =
    Array.of_list (Hashtbl.fold (fun k v acc -> (k, v) :: acc) etbl [])
  in
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) edges;
  let edgn_keys = Array.map fst edges in
  let edgn_off = Array.make (Array.length edges + 1) 0 in
  Array.iteri
    (fun i (_, pairs) ->
      edgn_off.(i + 1) <- edgn_off.(i) + (2 * Array.length pairs))
    edges;
  let edgn_pool = Array.make edgn_off.(Array.length edges) 0 in
  Array.iteri
    (fun i (_, pairs) ->
      let base = edgn_off.(i) in
      Array.iteri
        (fun j (src, dst) ->
          edgn_pool.(base + (2 * j)) <- src;
          edgn_pool.(base + (2 * j) + 1) <- dst)
        pairs)
    edges;
  let roots_arr = Array.of_list (Graph.roots idx.Index.data) in
  let meta =
    [|
      word_tag; n; m; n_syms; idx.Index.stride; u; !n_atoms;
      Array.length roots_arr;
    |]
  in
  let secs : (int * sec_data) list =
    [
      (s_meta, W meta);
      (s_roots, W roots_arr);
      (s_sym_off, W sym_off);
      (s_sym_blob, B sym_blob);
      (s_node_sym, W node_sym);
      (s_out_off, W csr.Gql_graph.Csr.out_off);
      (s_out_dst, W csr.Gql_graph.Csr.out_dst);
      (s_out_erec, W out_erec);
      (s_in_off, W csr.Gql_graph.Csr.in_off);
      (s_in_src, W csr.Gql_graph.Csr.in_src);
      (s_in_erec, W in_erec);
      (s_erec_name, W erec_name);
      (s_erec_kind, W erec_kind);
      (s_erec_ord, W erec_ord);
      (s_erec_gen, W erec_gen);
      (s_atom_tag, W atom_tag);
      (s_atom_aux, W atom_aux);
      (s_atom_flt, F atom_flt);
      (s_astr_off, W astr_off);
      (s_astr_blob, B astr_blob);
      (s_lbl_keys, W lbl_keys);
      (s_lbl_off, W lbl_off);
      (s_lbl_pool, W lbl_pool);
      (s_adjo_keys, W adjo_keys);
      (s_adjo_off, W adjo_off);
      (s_adjo_pool, W adjo_pool);
      (s_adji_keys, W adji_keys);
      (s_adji_off, W adji_off);
      (s_adji_pool, W adji_pool);
      (s_attr_keys, W attr_keys);
      (s_attr_off, W attr_off);
      (s_attr_pool, W attr_pool);
      (s_childo_off, W childo_off);
      (s_childo_pool, W childo_pool);
      (s_childi_off, W childi_off);
      (s_childi_pool, W childi_pool);
      (s_refo_off, W refo_off);
      (s_refo_pool, W refo_pool);
      (s_refi_off, W refi_off);
      (s_refi_pool, W refi_pool);
      (s_valn_keys, F valn_keys);
      (s_valn_off, W valn_off);
      (s_valn_pool, W valn_pool);
      (s_vals_koff, W vals_koff);
      (s_vals_kblob, B vals_kblob);
      (s_vals_off, W vals_off);
      (s_vals_pool, W vals_pool);
      (s_edgn_keys, W edgn_keys);
      (s_edgn_off, W edgn_off);
      (s_edgn_pool, W edgn_pool);
    ]
  in
  (* layout: header page, then each section page-aligned *)
  let cur = ref page in
  let placed =
    List.map
      (fun (id, d) ->
        let off = !cur in
        cur := !cur + round_page (sec_bytes d);
        (id, off, d))
      secs
  in
  let total = !cur in
  let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.ftruncate fd total;
  let va : words =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| total / 8 |])
  in
  let vc : chars =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| total |])
  in
  let vf : floats =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.float64 Bigarray.c_layout true [| total / 8 |])
  in
  let entries =
    List.map
      (fun (id, off, d) ->
        (match d with
        | W a ->
          let base = off / 8 in
          Array.iteri (fun i v -> Bigarray.Array1.set va (base + i) v) a
        | F a ->
          let base = off / 8 in
          Array.iteri (fun i v -> Bigarray.Array1.set vf (base + i) v) a
        | B b ->
          Bytes.iteri (fun i c -> Bigarray.Array1.set vc (off + i) c) b);
        let ck = checksum_words va (off / 8) (words_of_bytes (sec_bytes d)) in
        (id, off, sec_elems d, ck))
      placed
  in
  let hdr = Bytes.make page '\000' in
  Bytes.blit_string magic 0 hdr 0 8;
  let set slot v = Bytes.set_int64_le hdr slot (Int64.of_int v) in
  set h_version format_version;
  set h_word_bytes 8;
  set h_page page;
  set h_nsections (List.length entries);
  set h_total total;
  List.iteri
    (fun i (id, off, elems, ck) ->
      let base = h_table + (i * h_entry) in
      set base id;
      set (base + 8) off;
      set (base + 16) elems;
      set (base + 24) ck)
    entries;
  set h_checksum (checksum_header_bytes hdr);
  Bytes.iteri (fun i c -> Bigarray.Array1.set vc i c) hdr;
  note saves save_us ~us:(now_us () - t0) ~bytes:total;
  total

(* --- mapped view ------------------------------------------------------- *)

type mapped = {
  mp_path : string;
  mp_total : int;
  mp_words : words;
  mp_chars : chars;
  mp_floats : floats;
  mp_secs : (int * int * int * int) array;
      (** id, byte offset, element count, checksum *)
}

let really_read fd buf =
  let rec go off =
    if off >= Bytes.length buf then off
    else
      let k = Unix.read fd buf off (Bytes.length buf - off) in
      if k = 0 then off else go (off + k)
  in
  go 0

(* Parse and fully distrust the header: magic, version, word layout,
   page size, recorded total vs. actual file size (truncation), table
   bounds, whole-header checksum — then (with [verify]) every section's
   bounds, alignment and checksum.  Anything off answers the typed
   error with the section name and byte offset. *)
let open_mapped ~verify path : mapped =
  let fail section offset fmt = err ~path ~section ~offset fmt in
  let fd = Unix.openfile path [ O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  if size < page then
    fail "header" 0 "file is %d bytes, smaller than the %d-byte header page"
      size page;
  let hdr = Bytes.make page '\000' in
  if really_read fd hdr <> page then fail "header" 0 "short header read";
  if Bytes.sub_string hdr 0 8 <> magic then
    fail "header" 0 "bad magic %S (not a gql snapshot)"
      (String.escaped (Bytes.sub_string hdr 0 8));
  let geti slot = Int64.to_int (Bytes.get_int64_le hdr slot) in
  let version = geti h_version in
  if version <> format_version then
    fail "header" h_version "format version %d, this build reads version %d"
      version format_version;
  if geti h_word_bytes <> 8 then
    fail "header" h_word_bytes "word size %d, expected 8" (geti h_word_bytes);
  if geti h_page <> page then
    fail "header" h_page "page size %d, expected %d" (geti h_page) page;
  let total = geti h_total in
  if total <> size then
    fail "header" h_total
      "header records %d bytes but the file has %d (truncated or grown)" total
      size;
  if total mod page <> 0 then
    fail "header" h_total "total %d is not a page multiple" total;
  let nsec = geti h_nsections in
  if nsec < 0 || h_table + (nsec * h_entry) > page then
    fail "header" h_nsections "section table of %d entries overflows the header"
      nsec;
  let stored = geti h_checksum in
  Bytes.set_int64_le hdr h_checksum 0L;
  let computed = checksum_header_bytes hdr in
  if stored <> computed then
    fail "header" h_checksum "header checksum mismatch (stored %x, computed %x)"
      stored computed;
  let secs =
    Array.init nsec (fun i ->
        let base = h_table + (i * h_entry) in
        (geti base, geti (base + 8), geti (base + 16), geti (base + 24)))
  in
  let va : words =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.int Bigarray.c_layout false [| total / 8 |])
  in
  let vc : chars =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| total |])
  in
  let vf : floats =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.float64 Bigarray.c_layout false [| total / 8 |])
  in
  Array.iter
    (fun (id, off, elems, ck) ->
      let name = name_of_id id in
      let kind =
        match spec_of_id id with
        | Some (_, _, k) -> k
        | None -> fail name off "unknown section id %d" id
      in
      let bytes = match kind with KW | KF -> 8 * elems | KB -> elems in
      if off < page || off mod page <> 0 then
        fail name off "section offset %d is not page-aligned" off;
      if elems < 0 || bytes < 0 || off + bytes > total then
        fail name off "section of %d elements overruns the %d-byte file" elems
          total;
      if verify then begin
        let computed = checksum_words va (off / 8) (words_of_bytes bytes) in
        if computed <> ck then
          fail name off "section checksum mismatch (stored %x, computed %x)" ck
            computed
      end)
    secs;
  { mp_path = path; mp_total = total; mp_words = va; mp_chars = vc;
    mp_floats = vf; mp_secs = secs }

let find_sec mp id : int * int =
  let rec go i =
    if i >= Array.length mp.mp_secs then
      err ~path:mp.mp_path ~section:(name_of_id id) ~offset:0
        "section missing from file"
    else
      let id', off, elems, _ = mp.mp_secs.(i) in
      if id' = id then (off, elems) else go (i + 1)
  in
  go 0

let sec_fail mp id fmt =
  let off, _ = find_sec mp id in
  err ~path:mp.mp_path ~section:(name_of_id id) ~offset:off fmt

(* Materialise a word section as a plain [int array] — the one blit per
   section that keeps [Iset]/CSR interop on native arrays. *)
let sec_words mp id : int array =
  let off, elems = find_sec mp id in
  let base = off / 8 in
  let va = mp.mp_words in
  if elems = 0 then [||]
  else begin
    let a = Array.make elems 0 in
    for i = 0 to elems - 1 do
      Array.unsafe_set a i (Bigarray.Array1.unsafe_get va (base + i))
    done;
    a
  end

(* Zero-copy views for the lazy sections: the data stays on disk until
   a cold lane forces it. *)
let word_view mp id : words =
  let off, elems = find_sec mp id in
  Bigarray.Array1.sub mp.mp_words (off / 8) elems

let float_view mp id : floats =
  let off, elems = find_sec mp id in
  Bigarray.Array1.sub mp.mp_floats (off / 8) elems

let char_view mp id : chars =
  let off, elems = find_sec mp id in
  Bigarray.Array1.sub mp.mp_chars off elems

let view_string (v : chars) ~off ~len : string =
  String.init len (fun i -> Bigarray.Array1.get v (off + i))

(* --- structural validation helpers ------------------------------------- *)

let check_len mp id (a : int array) ~expect =
  if Array.length a <> expect then
    sec_fail mp id "expected %d elements, found %d" expect (Array.length a)

(* Offsets: length count+1, starts at 0, monotone non-decreasing, ends
   exactly at the pool length — so every later slice access is in
   bounds by construction. *)
let check_offsets mp id (off : int array) ~count ~limit =
  check_len mp id off ~expect:(count + 1);
  if count >= 0 && Array.length off > 0 && off.(0) <> 0 then
    sec_fail mp id "offsets start at %d, not 0" off.(0);
  for i = 0 to count - 1 do
    if Array.unsafe_get off (i + 1) < Array.unsafe_get off i then
      sec_fail mp id "offsets decrease at entry %d (%d -> %d)" i off.(i)
        off.(i + 1)
  done;
  if count >= 0 && off.(count) <> limit then
    sec_fail mp id "offsets end at %d but the pool holds %d elements"
      off.(count) limit

let check_range mp id (a : int array) ~lo ~hi =
  let n = Array.length a in
  let i = ref 0 in
  while
    !i < n
    &&
    let v = Array.unsafe_get a !i in
    v >= lo && v < hi
  do
    incr i
  done;
  if !i < n then
    sec_fail mp id "element %d holds %d, outside [%d, %d)" !i a.(!i) lo hi

(* Posting keys must be strictly ascending: flat lookups binary-search
   them, and an unsorted key plane would answer wrong sets silently. *)
let check_keys mp id (keys : int array) =
  for i = 1 to Array.length keys - 1 do
    if Array.unsafe_get keys (i - 1) >= Array.unsafe_get keys i then
      sec_fail mp id "keys not strictly ascending at entry %d" i
  done

(* Pool slices must be sorted (Iset invariant); [strict] is off only for
   the edge-pair pool, where parallel edges legitimately repeat. *)
(* Specialised for the blitted pools: same invariant as {!check_slices}
   below, but direct array access — the closure-per-element cost is
   visible at 1M-node scale. *)
let check_slices_words mp id ~(off : int array) ~(pool : int array) =
  for i = 0 to Array.length off - 2 do
    for j = Array.unsafe_get off i + 1 to Array.unsafe_get off (i + 1) - 1 do
      if Array.unsafe_get pool (j - 1) >= Array.unsafe_get pool j then
        sec_fail mp id "pool slice %d not sorted at element %d" i j
    done
  done

let check_slices mp id ~(off : int array) ~(get : int -> int) ~strict =
  for i = 0 to Array.length off - 2 do
    for j = Array.unsafe_get off i + 1 to Array.unsafe_get off (i + 1) - 1 do
      let a = get (j - 1) and b = get j in
      if (strict && a >= b) || (not strict && a > b) then
        sec_fail mp id "pool slice %d not sorted at element %d" i j
    done
  done

(* --- info / validate / file_key ---------------------------------------- *)

let read_meta mp : int array =
  let meta = sec_words mp s_meta in
  check_len mp s_meta meta ~expect:8;
  if meta.(0) <> word_tag then
    sec_fail mp s_meta
      "word-layout tag mismatch (file written on a foreign endianness?)";
  Array.iteri
    (fun i v ->
      if i > 0 && v < 0 then sec_fail mp s_meta "negative count %d at slot %d" v i)
    meta;
  meta

type info = {
  info_bytes : int;
  info_format : int;
  info_nodes : int;
  info_edges : int;
  info_syms : int;
  info_sections : (string * int * int) list;
      (** name, byte offset, element count *)
}

(** Map the file and verify every checksum and header invariant without
    materialising anything — the "zero-copy open" half of the E17
    zero-copy vs blit measurement, and the engine behind
    [gql snapshot info]. *)
let validate path : info =
  let mp = open_mapped ~verify:true path in
  let meta = read_meta mp in
  {
    info_bytes = mp.mp_total;
    info_format = format_version;
    info_nodes = meta.(1);
    info_edges = meta.(2);
    info_syms = meta.(3);
    info_sections =
      Array.to_list
        (Array.map (fun (id, off, elems, _) -> (name_of_id id, off, elems))
           mp.mp_secs);
  }

(** Content key of a snapshot file, from the header checksum (which
    covers every section checksum, so it is content-addressing without
    re-reading the payload).  Raises {!Invalid_snapshot} on garbage. *)
let file_key path : string =
  let mp = open_mapped ~verify:false path in
  let rec table_ck i acc =
    if i >= Array.length mp.mp_secs then acc
    else
      let _, _, _, ck = mp.mp_secs.(i) in
      table_ck (i + 1) (mix acc ck)
  in
  Printf.sprintf "snap-%d-%x" mp.mp_total (table_ck 0 0x1505)

(* --- load -------------------------------------------------------------- *)

(** Load a snapshot: verify everything, blit the hot planes into native
    arrays, wire the cold lanes lazily, and return the graph + index
    pair.  The index sits in the graph's frozen-index slot, so
    [Index.refresh] returns it until the graph grows.  The mutable
    digraph is NOT materialised — it thaws from the CSR on first
    scan-route/fork/render use. *)
let load ~path : Graph.t * Index.t =
  let t0 = now_us () in
  let mp = open_mapped ~verify:true path in
  let meta = read_meta mp in
  let n = meta.(1) and m = meta.(2) and n_syms = meta.(3) in
  let stride = meta.(4) and u = meta.(5) and n_atoms = meta.(6) in
  let n_roots = meta.(7) in
  if stride < 1 then sec_fail mp s_meta "stride %d < 1" stride;
  if n_atoms > n then sec_fail mp s_meta "%d atoms > %d nodes" n_atoms n;
  (* symbol table *)
  let sym_off = sec_words mp s_sym_off in
  let _, sym_blob_len = find_sec mp s_sym_blob in
  check_offsets mp s_sym_off sym_off ~count:n_syms ~limit:sym_blob_len;
  let sym_blob = char_view mp s_sym_blob in
  let syms =
    Array.init n_syms (fun i ->
        view_string sym_blob ~off:sym_off.(i)
          ~len:(sym_off.(i + 1) - sym_off.(i)))
  in
  let symtab =
    try Symtab.of_names syms
    with Invalid_argument _ ->
      sec_fail mp s_sym_blob "duplicate strings in symbol table"
  in
  (* edge records, shared across both label planes *)
  let erec_name = sec_words mp s_erec_name in
  let erec_kind = sec_words mp s_erec_kind in
  let erec_ord = sec_words mp s_erec_ord in
  let erec_gen = sec_words mp s_erec_gen in
  check_len mp s_erec_name erec_name ~expect:u;
  check_len mp s_erec_kind erec_kind ~expect:u;
  check_len mp s_erec_ord erec_ord ~expect:u;
  check_len mp s_erec_gen erec_gen ~expect:u;
  check_range mp s_erec_name erec_name ~lo:0 ~hi:(max 1 n_syms);
  check_range mp s_erec_kind erec_kind ~lo:0 ~hi:8;
  let erecs =
    Array.init u (fun k ->
        let kind =
          match erec_kind.(k) land 3 with
          | 0 -> Graph.Child
          | 1 -> Graph.Attribute
          | 2 -> Graph.Ref
          | _ -> Graph.Rel
        in
        {
          Graph.name = syms.(erec_name.(k));
          kind;
          ord = (if erec_kind.(k) land 4 <> 0 then Some erec_ord.(k) else None);
          gen = erec_gen.(k);
        })
  in
  (* CSR planes *)
  let out_off = sec_words mp s_out_off in
  let out_dst = sec_words mp s_out_dst in
  let out_erec_ids = sec_words mp s_out_erec in
  let in_off = sec_words mp s_in_off in
  let in_src = sec_words mp s_in_src in
  let in_erec_ids = sec_words mp s_in_erec in
  check_offsets mp s_out_off out_off ~count:n ~limit:m;
  check_offsets mp s_in_off in_off ~count:n ~limit:m;
  check_len mp s_out_dst out_dst ~expect:m;
  check_len mp s_in_src in_src ~expect:m;
  check_len mp s_out_erec out_erec_ids ~expect:m;
  check_len mp s_in_erec in_erec_ids ~expect:m;
  check_range mp s_out_dst out_dst ~lo:0 ~hi:(max 1 n);
  check_range mp s_in_src in_src ~lo:0 ~hi:(max 1 n);
  check_range mp s_out_erec out_erec_ids ~lo:0 ~hi:(max 1 u);
  check_range mp s_in_erec in_erec_ids ~lo:0 ~hi:(max 1 u);
  let dummy_edge = Graph.rel_edge "" in
  let lab_of ids =
    if u = 0 then [||]
    else begin
      let a = Array.make m dummy_edge in
      for i = 0 to m - 1 do
        a.(i) <- erecs.(ids.(i))
      done;
      a
    end
  in
  let out_lab = lab_of out_erec_ids in
  let in_lab = lab_of in_erec_ids in
  (* node payloads: one shared [Complex] box per symbol, atoms by cursor *)
  let node_sym = sec_words mp s_node_sym in
  check_len mp s_node_sym node_sym ~expect:n;
  check_range mp s_node_sym node_sym ~lo:(-1) ~hi:(max 1 n_syms);
  let atom_tag = sec_words mp s_atom_tag in
  let atom_aux = sec_words mp s_atom_aux in
  check_len mp s_atom_tag atom_tag ~expect:n_atoms;
  check_len mp s_atom_aux atom_aux ~expect:n_atoms;
  check_range mp s_atom_tag atom_tag ~lo:0 ~hi:4;
  let _, n_flt = find_sec mp s_atom_flt in
  let flt = float_view mp s_atom_flt in
  let astr_off = sec_words mp s_astr_off in
  let _, astr_blob_len = find_sec mp s_astr_blob in
  let n_astr = Array.length astr_off - 1 in
  if n_astr < 0 then sec_fail mp s_astr_off "empty offset section";
  check_offsets mp s_astr_off astr_off ~count:n_astr ~limit:astr_blob_len;
  let astr_blob = char_view mp s_astr_blob in
  let astrs =
    Array.init n_astr (fun i ->
        view_string astr_blob ~off:astr_off.(i)
          ~len:(astr_off.(i + 1) - astr_off.(i)))
  in
  let atom_box =
    Array.init n_atoms (fun k ->
        let aux = atom_aux.(k) in
        let v =
          match atom_tag.(k) with
          | 0 ->
            if aux < 0 || aux >= n_astr then
              sec_fail mp s_atom_aux "string id %d out of range" aux;
            Value.String astrs.(aux)
          | 1 -> Value.Int aux
          | 2 ->
            if aux < 0 || aux >= n_flt then
              sec_fail mp s_atom_aux "float id %d out of range" aux;
            Value.Float (Bigarray.Array1.get flt aux)
          | _ -> Value.Bool (aux <> 0)
        in
        Graph.Atom v)
  in
  let label_box = Array.map (fun s -> Graph.Complex s) syms in
  let payloads = Array.make n Graph.dummy_kind in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    let s = node_sym.(i) in
    if s >= 0 then payloads.(i) <- label_box.(s)
    else begin
      if !cursor >= n_atoms then
        sec_fail mp s_node_sym "more atom nodes than the %d recorded" n_atoms;
      payloads.(i) <- atom_box.(!cursor);
      incr cursor
    end
  done;
  if !cursor <> n_atoms then
    sec_fail mp s_node_sym "%d atom nodes, %d payloads recorded" !cursor n_atoms;
  let csr =
    Gql_graph.Csr.of_planes ~payloads ~out_off ~out_dst ~out_lab ~in_off
      ~in_src ~in_lab ~node_syms:node_sym
  in
  (* roots and the lazily-thawed mutable graph *)
  let roots_arr = sec_words mp s_roots in
  check_len mp s_roots roots_arr ~expect:n_roots;
  check_range mp s_roots roots_arr ~lo:0 ~hi:(max 1 n);
  let graph =
    Graph.of_thaw ~n_nodes:n ~n_edges:m ~roots:(Array.to_list roots_arr)
      (fun () -> Gql_graph.Csr.thaw csr ~dummy:Graph.dummy_kind)
  in
  (* flat posting maps (hot: blitted) *)
  let postings keys_id off_id pool_id ~key_hi =
    let keys = sec_words mp keys_id in
    let off = sec_words mp off_id in
    let pool = sec_words mp pool_id in
    check_keys mp keys_id keys;
    check_range mp keys_id keys ~lo:0 ~hi:key_hi;
    check_offsets mp off_id off ~count:(Array.length keys)
      ~limit:(Array.length pool);
    check_range mp pool_id pool ~lo:0 ~hi:(max 1 n);
    check_slices_words mp pool_id ~off ~pool;
    Index.P_flat { keys; off; pool }
  in
  let adj_hi = max 1 (((n - 1) * stride) + n_syms) in
  let by_label = postings s_lbl_keys s_lbl_off s_lbl_pool ~key_hi:(max 1 n_syms) in
  let out_by_name = postings s_adjo_keys s_adjo_off s_adjo_pool ~key_hi:adj_hi in
  let in_by_name = postings s_adji_keys s_adji_off s_adji_pool ~key_hi:adj_hi in
  let attr_out = postings s_attr_keys s_attr_off s_attr_pool ~key_hi:adj_hi in
  let dense off_id pool_id =
    let off = sec_words mp off_id in
    let pool = sec_words mp pool_id in
    check_offsets mp off_id off ~count:n ~limit:(Array.length pool);
    check_range mp pool_id pool ~lo:0 ~hi:(max 1 n);
    check_slices_words mp pool_id ~off ~pool;
    Index.D_flat { off; pool }
  in
  let child_out = dense s_childo_off s_childo_pool in
  let child_in = dense s_childi_off s_childi_pool in
  let ref_out = dense s_refo_off s_refo_pool in
  let ref_in = dense s_refi_off s_refi_pool in
  (* all-complex / all-atoms from the node-symbol plane *)
  let all_complex = Array.make (n - n_atoms) 0 in
  let all_atoms = Array.make n_atoms 0 in
  let wc = ref 0 and wa = ref 0 in
  for i = 0 to n - 1 do
    if node_sym.(i) >= 0 then begin
      all_complex.(!wc) <- i;
      incr wc
    end
    else begin
      all_atoms.(!wa) <- i;
      incr wa
    end
  done;
  (* value table: validated eagerly, materialised lazily off the views *)
  let valn_keys = float_view mp s_valn_keys in
  let valn_off = sec_words mp s_valn_off in
  let valn_pool = word_view mp s_valn_pool in
  let n_num = Bigarray.Array1.dim valn_keys in
  check_offsets mp s_valn_off valn_off ~count:n_num
    ~limit:(Bigarray.Array1.dim valn_pool);
  check_slices mp s_valn_pool ~off:valn_off
    ~get:(fun i -> Bigarray.Array1.get valn_pool i)
    ~strict:true;
  let vals_koff = sec_words mp s_vals_koff in
  let _, vals_kblob_len = find_sec mp s_vals_kblob in
  let n_str = Array.length vals_koff - 1 in
  if n_str < 0 then sec_fail mp s_vals_koff "empty offset section";
  check_offsets mp s_vals_koff vals_koff ~count:n_str ~limit:vals_kblob_len;
  let vals_kblob = char_view mp s_vals_kblob in
  let vals_off = sec_words mp s_vals_off in
  let vals_pool = word_view mp s_vals_pool in
  check_offsets mp s_vals_off vals_off ~count:n_str
    ~limit:(Bigarray.Array1.dim vals_pool);
  check_slices mp s_vals_pool ~off:vals_off
    ~get:(fun i -> Bigarray.Array1.get vals_pool i)
    ~strict:true;
  let slice_set (pool : words) lo hi =
    Iset.unsafe_of_sorted_array
      (Array.init (hi - lo) (fun j -> Bigarray.Array1.get pool (lo + j)))
  in
  let by_value_mk () =
    let h = Hashtbl.create (max 16 (n_num + n_str)) in
    for i = 0 to n_num - 1 do
      Hashtbl.replace h
        (Index.Num (Bigarray.Array1.get valn_keys i))
        (slice_set valn_pool valn_off.(i) valn_off.(i + 1))
    done;
    for i = 0 to n_str - 1 do
      Hashtbl.replace h
        (Index.Str
           (view_string vals_kblob ~off:vals_koff.(i)
              ~len:(vals_koff.(i + 1) - vals_koff.(i))))
        (slice_set vals_pool vals_off.(i) vals_off.(i + 1))
    done;
    h
  in
  (* per-name edge pairs: counts eager (planner stats), pairs lazy *)
  let edgn_keys = sec_words mp s_edgn_keys in
  let edgn_off = sec_words mp s_edgn_off in
  let edgn_pool = word_view mp s_edgn_pool in
  check_keys mp s_edgn_keys edgn_keys;
  check_range mp s_edgn_keys edgn_keys ~lo:0 ~hi:(max 1 n_syms);
  check_offsets mp s_edgn_off edgn_off ~count:(Array.length edgn_keys)
    ~limit:(Bigarray.Array1.dim edgn_pool);
  Array.iteri
    (fun i _ ->
      if (edgn_off.(i + 1) - edgn_off.(i)) mod 2 <> 0 then
        sec_fail mp s_edgn_off "odd pair-pool slice at entry %d" i)
    edgn_keys;
  let counts =
    Array.init (Array.length edgn_keys) (fun i ->
        (edgn_keys.(i), (edgn_off.(i + 1) - edgn_off.(i)) / 2))
  in
  let edgn_mk () =
    let h = Hashtbl.create (max 16 (Array.length edgn_keys)) in
    Array.iteri
      (fun i sym ->
        let lo = edgn_off.(i) in
        let cnt = (edgn_off.(i + 1) - lo) / 2 in
        Hashtbl.replace h sym
          (Array.init cnt (fun j ->
               ( Bigarray.Array1.get edgn_pool (lo + (2 * j)),
                 Bigarray.Array1.get edgn_pool (lo + (2 * j) + 1) ))))
      edgn_keys;
    h
  in
  let index =
    {
      Index.data = graph;
      csr;
      version = (n, m);
      symtab;
      stride;
      by_label;
      by_value = Index.V_lazy by_value_mk;
      all_complex = Iset.unsafe_of_sorted_array all_complex;
      all_atoms = Iset.unsafe_of_sorted_array all_atoms;
      out_by_name;
      in_by_name;
      attr_out;
      child_out;
      child_in;
      ref_out;
      ref_in;
      edges_by_name = Index.E_lazy { counts; mk = edgn_mk };
      path_lock = Mutex.create ();
      planes = Hashtbl.create 4;
      path_specs = Hashtbl.create 8;
      path_memo = Hashtbl.create 64;
      path_elems = 0;
    }
  in
  Index.attach graph index;
  note loads load_us ~us:(now_us () - t0) ~bytes:mp.mp_total;
  (graph, index)
