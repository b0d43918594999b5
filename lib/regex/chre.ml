(** Character-level regular expressions.

    These are the regexes that appear in query predicates — e.g. the
    [/Van.*/] and [/[hH]olland/] patterns of the paper's running examples —
    and in GraphLog-style textual conditions.  The supported syntax is the
    classical core: literals, [.], character classes [[a-z0-9]] (with
    ranges and [^] negation), grouping, alternation [|], and the postfix
    operators [*], [+], [?].  Escaping with [\\] makes any metacharacter
    literal; [\\d], [\\w], [\\s] are provided as conveniences.

    A pattern by default must match the whole subject ({!matches});
    {!search} finds a match anywhere in the subject.  Matching never
    backtracks.  {!compile} turns the Thompson NFAs of the pattern (one
    anchored, one floating) into DFAs by subset construction over byte
    equivalence classes: the 256 byte values are partitioned by which of
    the pattern's character classes accept them (case folding included),
    so the transition table has one column per class, not per byte.  A
    match is then one table lookup per subject byte, and the compiled
    value is immutable, so domains share it without locks.

    Subset construction is exponential in the worst case, so it stops
    at {!dfa_state_budget} states; an automaton that would exceed it
    keeps the NFA and runs the subset simulation instead (linear time,
    slower per byte).  The budget is what bounds compile time on a
    hostile pattern: each DFA state costs one NFA step per byte class.
    Compile once per query, never per candidate. *)

type cls =
  | Any  (** [.] — any character *)
  | Lit of char
  | Set of { ranges : (char * char) list; negated : bool }

(* A DFA over byte classes.  State 0 is the dead state (the empty NFA
   set), state 1 the start; [trans.(q * n_classes + c)] is the successor
   of [q] on any byte of class [c]. *)
type dfa = {
  classes : Bytes.t;  (** byte -> class id *)
  n_classes : int;
  trans : int array;
  final : bool array;  (** accepting states *)
}

type engine =
  | Dfa of dfa
  | Sim of char Nfa.t  (** over the state budget: subset simulation *)

type t = {
  pattern : string;
  case_insensitive : bool;
  anchored : engine;  (** whole-string automaton *)
  floating : engine;  (** [.* re .*] automaton for {!search} *)
  ast : cls Syntax.t;
}

exception Parse_error of string * int
(** [Parse_error (msg, pos)] — syntax error at byte offset [pos]. *)

let fail msg pos = raise (Parse_error (msg, pos))

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the pattern string.                  *)
(* ------------------------------------------------------------------ *)

let parse (s : string) : cls Syntax.t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c) !pos
  in
  let escape_class c =
    (* Shared by both top-level escapes and escapes inside [...] sets. *)
    match c with
    | 'd' -> Set { ranges = [ ('0', '9') ]; negated = false }
    | 'w' ->
      Set
        { ranges = [ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ];
          negated = false }
    | 's' ->
      Set
        { ranges = [ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ];
          negated = false }
    | 'n' -> Lit '\n'
    | 't' -> Lit '\t'
    | 'r' -> Lit '\r'
    | c -> Lit c
  in
  let parse_set () =
    (* Called after '['. *)
    let negated =
      match peek () with
      | Some '^' -> advance (); true
      | _ -> false
    in
    let ranges = ref [] in
    let rec items first =
      match peek () with
      | None -> fail "unterminated character class" !pos
      | Some ']' when not first -> advance ()
      | Some c ->
        advance ();
        let c =
          if c = '\\' then (
            match peek () with
            | None -> fail "dangling escape in class" !pos
            | Some e ->
              advance ();
              (match escape_class e with
              | Lit l -> l
              | Set { ranges = rs; negated = false } ->
                (* \d etc. inside a class: splice the ranges in. *)
                ranges := rs @ !ranges;
                (* Use a marker that adds nothing further. *)
                '\000'
              | _ -> fail "unsupported escape in class" !pos))
          else c
        in
        if c <> '\000' then begin
          match peek () with
          | Some '-' when !pos + 1 < n && s.[!pos + 1] <> ']' ->
            advance ();
            (match peek () with
            | Some hi ->
              advance ();
              if hi < c then fail "inverted range in class" !pos;
              ranges := (c, hi) :: !ranges
            | None -> fail "unterminated range" !pos)
          | _ -> ranges := (c, c) :: !ranges
        end;
        items false
    in
    items true;
    Set { ranges = List.rev !ranges; negated }
  in
  let rec parse_alt () =
    let left = parse_seq () in
    match peek () with
    | Some '|' ->
      advance ();
      Syntax.alt left (parse_alt ())
    | _ -> left
  and parse_seq () =
    let rec go acc =
      match peek () with
      | None | Some ')' | Some '|' -> acc
      | _ -> go (Syntax.seq acc (parse_postfix ()))
    in
    go Syntax.eps
  and parse_postfix () =
    let atom = parse_atom () in
    let parse_bound () =
      (* {n}, {n,}, {n,m} — desugared by expansion; bounds are capped to
         keep adversarial patterns from exploding the automaton *)
      let number () =
        let start = !pos in
        while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
          advance ()
        done;
        if !pos = start then None
        else Some (int_of_string (String.sub s start (!pos - start)))
      in
      let lo = number () in
      match lo with
      | None -> fail "expected a number in {}" !pos
      | Some lo ->
        if lo > 64 then fail "repetition bound too large (max 64)" !pos;
        let hi =
          match peek () with
          | Some ',' -> (
            advance ();
            match number () with
            | Some hi ->
              if hi > 64 then fail "repetition bound too large (max 64)" !pos;
              if hi < lo then fail "inverted repetition bounds" !pos;
              `Upto hi
            | None -> `Unbounded)
          | _ -> `Exactly
        in
        (match peek () with
        | Some '}' -> advance ()
        | _ -> fail "expected '}'" !pos);
        (lo, hi)
    in
    let repeat r (lo, hi) =
      let prefix = Syntax.seq_list (List.init lo (fun _ -> r)) in
      match hi with
      | `Exactly -> prefix
      | `Unbounded -> Syntax.seq prefix (Syntax.star r)
      | `Upto hi ->
        Syntax.seq prefix
          (Syntax.seq_list (List.init (hi - lo) (fun _ -> Syntax.opt r)))
    in
    let rec post r =
      match peek () with
      | Some '*' -> advance (); post (Syntax.star r)
      | Some '+' -> advance (); post (Syntax.plus r)
      | Some '?' -> advance (); post (Syntax.opt r)
      | Some '{' -> advance (); post (repeat r (parse_bound ()))
      | _ -> r
    in
    post atom
  and parse_atom () =
    match peek () with
    | None -> fail "expected atom" !pos
    | Some '(' ->
      advance ();
      let r = parse_alt () in
      expect ')';
      r
    | Some '[' ->
      advance ();
      Syntax.sym (parse_set ())
    | Some '.' ->
      advance ();
      Syntax.sym Any
    | Some '\\' ->
      advance ();
      (match peek () with
      | None -> fail "dangling escape" !pos
      | Some c ->
        advance ();
        Syntax.sym (escape_class c))
    | Some ('*' | '+' | '?') -> fail "quantifier with nothing to repeat" !pos
    | Some ')' -> fail "unbalanced ')'" !pos
    | Some c ->
      advance ();
      Syntax.sym (Lit c)
  in
  let r = parse_alt () in
  if !pos <> n then fail "trailing input" !pos;
  r

(* ------------------------------------------------------------------ *)
(* Matching.                                                           *)
(* ------------------------------------------------------------------ *)

let lower c = if c >= 'A' && c <= 'Z' then Char.chr (Char.code c + 32) else c

let cls_matches ~ci cls c =
  let c = if ci then lower c else c in
  match cls with
  | Any -> true
  | Lit l -> (if ci then lower l else l) = c
  | Set { ranges; negated } ->
    let inside =
      List.exists
        (fun (lo, hi) ->
          if ci then
            (* Case-insensitive sets: check both the raw and folded char. *)
            (c >= lower lo && c <= lower hi) || (c >= lo && c <= hi)
          else c >= lo && c <= hi)
        ranges
    in
    if negated then not inside else inside

(* ------------------------------------------------------------------ *)
(* Determinisation.                                                    *)
(* ------------------------------------------------------------------ *)

let dfa_state_budget = 1024

(* Bytes accepted by exactly the same character classes of the pattern
   are interchangeable to every transition; [reps.(c)] is one byte of
   class [c]. *)
let byte_classes ~ci (ast : cls Syntax.t) : Bytes.t * char array =
  let clss = Array.of_list (List.sort_uniq compare (Syntax.symbols ast)) in
  let ids = Hashtbl.create 16 in
  let reps = ref [] in
  let classes =
    Bytes.init 256 (fun b ->
        let c = Char.chr b in
        let signature =
          String.init (Array.length clss) (fun i ->
              if cls_matches ~ci clss.(i) c then '1' else '0')
        in
        match Hashtbl.find_opt ids signature with
        | Some id -> Char.chr id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids signature id;
          reps := c :: !reps;
          Char.chr id)
  in
  (classes, Array.of_list (List.rev !reps))

(* A DFA state is the sorted array of the (ε-closed) NFA states it
   stands for; sets stay sparse, so the work per DFA state tracks the
   set's size, not the NFA's.  The hash reads every element
   ([Hashtbl.hash] stops after the first few). *)
module State_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.fold_left (fun h q -> (h * 31) + q) 0 a land max_int
end)

exception Over_budget

(* Subset construction; [None] when the DFA would exceed the budget.
   With [absorbing] (the floating automaton, whose trailing [.*] keeps
   every continuation of an accepted prefix accepted) all accepting
   sets collapse into one state that loops on every byte. *)
let determinise ~absorbing (nfa : char Nfa.t) (classes, reps) : dfa option =
  let n_classes = Array.length reps in
  let preds, succs = nfa.Nfa.delta in
  let mark = Bytes.make nfa.Nfa.n_states '\000' in
  (* ε-close [seeds] (unmarked NFA states) into a sorted state array *)
  let close seeds =
    let out = ref [] in
    let rec visit q =
      if Bytes.get mark q = '\000' then begin
        Bytes.set mark q '\001';
        out := q :: !out;
        List.iter visit nfa.Nfa.eps.(q)
      end
    in
    List.iter visit seeds;
    let set = Array.of_list !out in
    Array.iter (fun q -> Bytes.set mark q '\000') set;
    Array.sort compare set;
    set
  in
  let step set c =
    close
      (Array.fold_left
         (fun acc q ->
           List.fold_left2
             (fun acc f q' -> if f c then q' :: acc else acc)
             acc preds.(q) succs.(q))
         [] set)
  in
  let ids = State_tbl.create 64 in
  let pending = Queue.create () in
  let accepting set = Array.mem nfa.Nfa.accept set in
  let intern set =
    let set = if absorbing && accepting set then [| nfa.Nfa.accept |] else set in
    match State_tbl.find_opt ids set with
    | Some id -> id
    | None ->
      let id = State_tbl.length ids in
      if id = dfa_state_budget then raise_notrace Over_budget;
      State_tbl.add ids set id;
      Queue.add (id, set) pending;
      id
  in
  let rows = ref [] in
  match
    ignore (intern [||]);
    ignore (intern (close [ nfa.Nfa.start ]));
    while not (Queue.is_empty pending) do
      let id, set = Queue.pop pending in
      let final = accepting set in
      let row =
        if absorbing && final then Array.make n_classes id
        else Array.map (fun rep -> intern (step set rep)) reps
      in
      rows := (id, row, final) :: !rows
    done
  with
  | exception Over_budget -> None
  | () ->
    let n = State_tbl.length ids in
    let trans = Array.make (n * n_classes) 0 and final = Array.make n false in
    List.iter
      (fun (id, row, acc) ->
        Array.blit row 0 trans (id * n_classes) n_classes;
        final.(id) <- acc)
      !rows;
    Some { classes; n_classes; trans; final }

let engine ~absorbing nfa classes =
  match determinise ~absorbing nfa classes with Some d -> Dfa d | None -> Sim nfa

let next d q c = d.trans.((q * d.n_classes) + Char.code (Bytes.get d.classes (Char.code c)))

let compile ?(case_insensitive = false) pattern =
  let ast = parse pattern in
  let pred cls c = cls_matches ~ci:case_insensitive cls c in
  let classes = byte_classes ~ci:case_insensitive ast in
  let dot_star = Syntax.star (Syntax.sym Any) in
  let anchored = engine ~absorbing:false (Nfa.compile pred ast) classes in
  let floating =
    engine ~absorbing:true
      (Nfa.compile pred Syntax.(seq dot_star (seq ast dot_star)))
      classes
  in
  { pattern; case_insensitive; anchored; floating; ast }

let compile_opt ?case_insensitive pattern =
  match compile ?case_insensitive pattern with
  | t -> Some t
  | exception Parse_error _ -> None

let matches t subject =
  match t.anchored with
  | Sim nfa -> Nfa.run nfa (String.to_seq subject)
  | Dfa d ->
    let n = String.length subject in
    let rec go q i =
      if i = n then d.final.(q)
      else q <> 0 && go (next d q subject.[i]) (i + 1)
    in
    go 1 0

(* The floating automaton's trailing [.*] makes acceptance absorbing, so
   the first accepting state decides. *)
let search t subject =
  match t.floating with
  | Sim nfa -> Nfa.run nfa (String.to_seq subject)
  | Dfa d ->
    let n = String.length subject in
    let rec go q i = d.final.(q) || (i < n && go (next d q subject.[i]) (i + 1)) in
    go 1 0

(** Both automata are DFAs (false when one is over the state budget and
    runs the subset simulation). *)
let deterministic t =
  match t.anchored, t.floating with Dfa _, Dfa _ -> true | (Dfa _ | Sim _), _ -> false

let pattern t = t.pattern
let ast t = t.ast

(* ------------------------------------------------------------------ *)
(* Reference matcher (Brzozowski derivatives) — used by property tests *)
(* to cross-check both engines on random patterns and subjects.        *)
(* ------------------------------------------------------------------ *)

let rec derive ~ci c (r : cls Syntax.t) : cls Syntax.t =
  let open Syntax in
  match r with
  | Empty | Eps -> Empty
  | Sym cls -> if cls_matches ~ci cls c then Eps else Empty
  | Seq (a, b) ->
    let da_b = seq (derive ~ci c a) b in
    if nullable a then alt da_b (derive ~ci c b) else da_b
  | Alt (a, b) -> alt (derive ~ci c a) (derive ~ci c b)
  | Star a -> seq (derive ~ci c a) (star a)
  | Plus a -> seq (derive ~ci c a) (star a)
  | Opt a -> derive ~ci c a

let matches_reference t subject =
  let r = ref t.ast in
  String.iter (fun c -> r := derive ~ci:t.case_insensitive c !r) subject;
  Syntax.nullable !r
