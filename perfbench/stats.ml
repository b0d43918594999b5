(* Order statistics and the result line. *)

(** Nearest-rank quantile: the smallest sample with at least [q] of the
    samples at or below it.  0 on an empty list. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs

(** Nearest-rank quantile of weighted samples [(value, weight)]: the
    smallest value with at least [q] of the total weight at or below
    it.  0 on an empty list. *)
let weighted_quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let target = q *. Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 a in
    let rec go i acc =
      let v, w = a.(i) in
      if i = Array.length a - 1 || acc +. w >= target then v else go (i + 1) (acc +. w)
    in
    go 0 0.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision: a time is reported with every digit measured. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(** The last line of standard output. *)
let result_line ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  json_object
    [
      ("correct", if correct then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_object
          (List.map
             (fun (name, v, unit) ->
               (name, json_object [ ("value", json_number v); ("unit", json_string unit) ]))
             metrics) );
    ]
