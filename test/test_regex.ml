(* Tests for Gql_regex: syntax algebra, the NFA engine, the char-regex
   front-end (cross-checked against the derivative matcher) and Glushkov
   automata for DTD content models. *)

open Gql_regex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Syntax ---------------------------------------------------------- *)

let test_nullable () =
  let open Syntax in
  check "eps nullable" true (nullable eps);
  check "empty not nullable" false (nullable empty);
  check "sym not nullable" false (nullable (sym 'a'));
  check "star nullable" true (nullable (star (sym 'a')));
  check "plus of nullable" true (nullable (plus (opt (sym 'a'))));
  check "seq needs both" false (nullable (seq (sym 'a') (star (sym 'b'))));
  check "alt needs one" true (nullable (alt (sym 'a') eps))

let test_smart_constructors () =
  let open Syntax in
  check "seq empty = empty" true (seq empty (sym 'a') = empty);
  check "seq eps identity" true (seq eps (sym 'a') = sym 'a');
  check "alt empty identity" true (alt empty (sym 'a') = sym 'a');
  check "alt idempotent" true (alt (sym 'a') (sym 'a') = sym 'a');
  check "star of star" true (star (star (sym 'a')) = star (sym 'a'));
  check "star of eps" true (star eps = eps);
  check "opt of star collapses" true (opt (star (sym 'a')) = star (sym 'a'))

let test_symbols_order () =
  let open Syntax in
  let re = seq (sym 1) (alt (sym 2) (seq (sym 3) (star (sym 4)))) in
  Alcotest.(check (list int)) "left-to-right" [ 1; 2; 3; 4 ] (symbols re)

let test_to_string () =
  let open Syntax in
  Alcotest.(check string) "alt/seq precedence" "a b|c"
    (to_string (String.make 1) (alt (seq (sym 'a') (sym 'b')) (sym 'c')));
  Alcotest.(check string) "star on group" "(a b)*"
    (to_string (String.make 1) (star (seq (sym 'a') (sym 'b'))))

(* --- Chre ------------------------------------------------------------ *)

let m pat s = Chre.matches (Chre.compile pat) s
let srch pat s = Chre.search (Chre.compile pat) s

let test_literal () =
  check "exact" true (m "abc" "abc");
  check "partial no" false (m "abc" "abcd");
  check "empty pattern, empty subject" true (m "" "");
  check "empty pattern, non-empty" false (m "" "x")

let test_operators () =
  check "star zero" true (m "a*" "");
  check "star many" true (m "a*" "aaaa");
  check "plus needs one" false (m "a+" "");
  check "plus many" true (m "a+" "aaa");
  check "opt present" true (m "ab?c" "abc");
  check "opt absent" true (m "ab?c" "ac");
  check "alt left" true (m "cat|dog" "cat");
  check "alt right" true (m "cat|dog" "dog");
  check "alt neither" false (m "cat|dog" "cow");
  check "group star" true (m "(ab)*" "ababab");
  check "group star partial" false (m "(ab)*" "aba")

let test_classes () =
  check "dot any" true (m "a.c" "axc");
  check "dot not empty" false (m "a.c" "ac");
  check "range low" true (m "[a-z]+" "hello");
  check "range reject" false (m "[a-z]+" "Hello");
  check "negated" true (m "[^0-9]+" "abc");
  check "negated reject" false (m "[^0-9]+" "ab1");
  check "multi range" true (m "[a-zA-Z0-9_]+" "Mixed_Case99");
  check "literal dash" true (m "[a-]+" "a-a");
  check "digit escape" true (m "\\d+" "12345");
  check "word escape" true (m "\\w+" "ab_9");
  check "space escape" true (m "a\\sb" "a b")

let test_escapes () =
  check "escaped dot" true (m "a\\.c" "a.c");
  check "escaped dot rejects" false (m "a\\.c" "axc");
  check "escaped star" true (m "a\\*" "a*");
  check "escaped backslash" true (m "a\\\\b" "a\\b")

let test_paper_patterns () =
  (* the patterns of the supplied text's examples *)
  let van = Chre.compile "Van.*" in
  check "VanDam" true (Chre.matches van "VanDam");
  check "DeRuiter no" false (Chre.matches van "DeRuiter");
  let holland = Chre.compile "[hH]olland" in
  check "holland" true (Chre.matches holland "holland");
  check "Holland" true (Chre.matches holland "Holland");
  check "search in sentence" true (Chre.search holland "in Holland today")

let test_search () =
  check "substring" true (srch "ell" "hello");
  check "no substring" false (srch "elf" "hello");
  check "search empty pattern" true (srch "" "anything");
  check "anchored vs search" false (m "ell" "hello")

let test_case_insensitive () =
  let t = Chre.compile ~case_insensitive:true "abc" in
  check "ci upper" true (Chre.matches t "ABC");
  check "ci mixed" true (Chre.matches t "AbC");
  let cls = Chre.compile ~case_insensitive:true "[a-z]+" in
  check "ci class" true (Chre.matches cls "HELLO")

let test_bounded_repetition () =
  check "exactly" true (m "a{3}" "aaa");
  check "exactly under" false (m "a{3}" "aa");
  check "exactly over" false (m "a{3}" "aaaa");
  check "at least" true (m "a{2,}" "aaaaa");
  check "at least under" false (m "a{2,}" "a");
  check "range low" true (m "a{1,3}" "a");
  check "range high" true (m "a{1,3}" "aaa");
  check "range over" false (m "a{1,3}" "aaaa");
  check "zero min" true (m "a{0,2}b" "b");
  check "group bound" true (m "(ab){2}" "abab");
  check "bound then more" true (m "a{2}b+" "aabbb");
  let bad p =
    match Chre.compile p with
    | _ -> false
    | exception Chre.Parse_error _ -> true
  in
  check "empty braces" true (bad "a{}");
  check "inverted" true (bad "a{3,1}");
  check "huge bound" true (bad "a{9999}");
  check "unclosed" true (bad "a{2")

let test_parse_errors () =
  let bad p =
    match Chre.compile p with
    | _ -> false
    | exception Chre.Parse_error _ -> true
  in
  check "dangling star" true (bad "*a");
  check "unbalanced paren" true (bad "(ab");
  check "unbalanced close" true (bad "ab)");
  check "unterminated class" true (bad "[abc");
  check "dangling escape" true (bad "ab\\");
  check "compile_opt none" true (Chre.compile_opt "(" = None);
  check "compile_opt some" true (Chre.compile_opt "a" <> None)

(* Properties: both engines (DFA and, over the state budget, the NFA
   simulation) agree with the Brzozowski-derivative reference on random
   patterns and subjects. *)
let atoms =
  [ "a"; "b"; "c"; "A"; "."; "[a-c]"; "[^ab]"; "[A-Za]"; "[0-9b]"; "\\d";
    "\\w"; "\\s" ]

let pattern_gen =
  (* Random well-formed patterns over a small alphabet. *)
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then oneofl atoms
    else
      frequency
        [
          (3, gen 0);
          (2, map2 (fun a b -> a ^ b) (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun a b -> Printf.sprintf "(%s|%s)" a b) (gen (depth - 1)) (gen (depth - 1)));
          (1, map (fun a -> Printf.sprintf "(%s)*" a) (gen (depth - 1)));
          (1, map (fun a -> Printf.sprintf "(%s)+" a) (gen (depth - 1)));
          (1, map (fun a -> Printf.sprintf "(%s)?" a) (gen (depth - 1)));
        ]
  in
  gen 3

let subject_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'A'; 'B'; '1'; ' '; '-' ]) (int_bound 8))

let case_arb =
  QCheck.make
    ~print:(fun (ci, pat, subject) -> Printf.sprintf "%S ci=%b on %S" pat ci subject)
    (QCheck.Gen.triple QCheck.Gen.bool pattern_gen subject_gen)

(* [search] holds iff some substring is a whole match. *)
let search_reference t subject =
  let n = String.length subject in
  List.exists
    (fun i ->
      List.exists
        (fun len -> Chre.matches_reference t (String.sub subject i len))
        (List.init (n - i + 1) Fun.id))
    (List.init (n + 1) Fun.id)

let prop_matches_vs_derivative =
  QCheck.Test.make ~name:"matches agrees with derivative matcher" ~count:500
    case_arb (fun (case_insensitive, pat, subject) ->
      let t = Chre.compile ~case_insensitive pat in
      Chre.matches t subject = Chre.matches_reference t subject)

let prop_search_vs_substrings =
  QCheck.Test.make ~name:"search = some substring matches" ~count:500
    case_arb (fun (case_insensitive, pat, subject) ->
      let t = Chre.compile ~case_insensitive pat in
      Chre.search t subject = search_reference t subject)

let prop_nullable_matches_empty =
  QCheck.Test.make ~name:"nullable = matches empty string" ~count:300
    (QCheck.make pattern_gen)
    (fun pat ->
      let t = Chre.compile pat in
      Chre.matches t "" = Syntax.nullable (Chre.ast t))

(* (a|b)*a(a|b){12}: the 13th symbol from the end is an 'a', so both
   DFAs need 2^12 or more states.  Compilation stops at the budget and
   the subset simulation answers. *)
let test_over_budget () =
  let pat = "(a|b)*a" ^ String.concat "" (List.init 12 (fun _ -> "(a|b)")) in
  let t0 = Unix.gettimeofday () in
  let t = Chre.compile pat in
  let dt = Unix.gettimeofday () -. t0 in
  check "falls back to simulation" false (Chre.deterministic t);
  check "compile time bounded" true (dt < 2.0);
  check "paper pattern is a DFA" true (Chre.deterministic (Chre.compile "Van.*"));
  let rng = Random.State.make [| 14 |] in
  for _ = 1 to 200 do
    let subject =
      String.init (Random.State.int rng 20) (fun _ ->
          if Random.State.bool rng then 'a' else 'b')
    in
    check ("matches " ^ subject) (Chre.matches_reference t subject)
      (Chre.matches t subject);
    check ("search " ^ subject) (search_reference t subject) (Chre.search t subject)
  done

(* A compiled regex is immutable: two domains sharing one value answer
   exactly as a sequential run does. *)
let test_shared_across_domains () =
  let t = Chre.compile ~case_insensitive:true "van.*|[hH]oll?and|\\d+" in
  let subjects =
    List.init 2000 (fun i ->
        Printf.sprintf "%s%d"
          [| "VanDam"; "holand"; "Holland"; "x"; "" |].(i mod 5)
          (i mod 7))
  in
  let answers () = List.map (fun s -> (Chre.matches t s, Chre.search t s)) subjects in
  let expected = answers () in
  let ds = List.init 2 (fun _ -> Domain.spawn answers) in
  List.iter (fun d -> check "same answers" true (Domain.join d = expected)) ds

(* --- Glushkov --------------------------------------------------------- *)

let book_model =
  (* title? price AUTHOR-star *)
  Syntax.(seq (opt (sym "title")) (seq (sym "price") (star (sym "AUTHOR"))))

let test_glushkov_accepts () =
  let auto = Glushkov.build book_model in
  check "full" true (Glushkov.accepts auto [ "title"; "price"; "AUTHOR"; "AUTHOR" ]);
  check "no title" true (Glushkov.accepts auto [ "price" ]);
  check "missing price" false (Glushkov.accepts auto [ "title" ]);
  check "title after price" false (Glushkov.accepts auto [ "price"; "title" ]);
  check "author before price" false (Glushkov.accepts auto [ "AUTHOR"; "price" ]);
  check "empty rejected" false (Glushkov.accepts auto [])

let test_glushkov_nullable () =
  let auto = Glushkov.build Syntax.(star (sym "x")) in
  check "star accepts empty" true (Glushkov.accepts auto []);
  check "star accepts many" true (Glushkov.accepts auto [ "x"; "x" ])

let test_glushkov_deterministic () =
  check "book model deterministic" true
    (Glushkov.deterministic (Glushkov.build book_model));
  (* (a, b) | (a, c) is the classic 1-ambiguous model *)
  let ambiguous =
    Syntax.(alt (seq (sym "a") (sym "b")) (seq (sym "a") (sym "c")))
  in
  check "ambiguous detected" false
    (Glushkov.deterministic (Glushkov.build ambiguous));
  (* a(b|c) is fine *)
  let fine = Syntax.(seq (sym "a") (alt (sym "b") (sym "c"))) in
  check "factored fine" true (Glushkov.deterministic (Glushkov.build fine))

let test_glushkov_expected_first () =
  let auto = Glushkov.build book_model in
  Alcotest.(check (list string))
    "first symbols" [ "title"; "price" ]
    (Glushkov.expected_first auto)

(* Property: Glushkov acceptance agrees with NFA word acceptance. *)
let symre_gen =
  let open QCheck.Gen in
  let syms = [ "a"; "b"; "c" ] in
  let rec gen depth =
    if depth = 0 then map Syntax.sym (oneofl syms)
    else
      frequency
        [
          (3, gen 0);
          (2, map2 Syntax.seq (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 Syntax.alt (gen (depth - 1)) (gen (depth - 1)));
          (1, map Syntax.star (gen (depth - 1)));
          (1, map Syntax.plus (gen (depth - 1)));
          (1, map Syntax.opt (gen (depth - 1)));
        ]
  in
  gen 3

let word_gen = QCheck.Gen.(list_size (int_bound 6) (oneofl [ "a"; "b"; "c" ]))

let prop_glushkov_vs_nfa =
  QCheck.Test.make ~name:"glushkov agrees with thompson nfa" ~count:500
    (QCheck.make (QCheck.Gen.pair symre_gen word_gen))
    (fun (re, word) ->
      let auto = Glushkov.build re in
      let nfa = Nfa.compile (fun s tok -> s = tok) re in
      Glushkov.accepts auto word = Nfa.run_list nfa word)

let () =
  Alcotest.run "gql_regex"
    [
      ( "syntax",
        [
          Alcotest.test_case "nullable" `Quick test_nullable;
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "symbols order" `Quick test_symbols_order;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "chre",
        [
          Alcotest.test_case "literal" `Quick test_literal;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "classes" `Quick test_classes;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "bounded repetition" `Quick test_bounded_repetition;
          Alcotest.test_case "paper patterns" `Quick test_paper_patterns;
          Alcotest.test_case "search" `Quick test_search;
          Alcotest.test_case "case insensitive" `Quick test_case_insensitive;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "over the DFA budget" `Quick test_over_budget;
          Alcotest.test_case "shared across domains" `Quick
            test_shared_across_domains;
        ] );
      ( "glushkov",
        [
          Alcotest.test_case "accepts" `Quick test_glushkov_accepts;
          Alcotest.test_case "nullable" `Quick test_glushkov_nullable;
          Alcotest.test_case "deterministic" `Quick test_glushkov_deterministic;
          Alcotest.test_case "expected first" `Quick test_glushkov_expected_first;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_matches_vs_derivative;
          QCheck_alcotest.to_alcotest prop_search_vs_substrings;
          QCheck_alcotest.to_alcotest prop_nullable_matches_empty;
          QCheck_alcotest.to_alcotest prop_glushkov_vs_nfa;
        ] );
    ]

let _ = check_int
