type token =
  | Ident of string
  | Int of int
  | String of string
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Semicolon
  | Colon
  | Equal
  | Arrow
  | Eqeq
  | Le
  | Eof

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "identifier %s" s
  | Int n -> Fmt.pf ppf "integer %d" n
  | String s -> Fmt.pf ppf "string '%s'" s
  | Lparen -> Fmt.string ppf "("
  | Rparen -> Fmt.string ppf ")"
  | Lbracket -> Fmt.string ppf "["
  | Rbracket -> Fmt.string ppf "]"
  | Comma -> Fmt.string ppf ","
  | Semicolon -> Fmt.string ppf ";"
  | Colon -> Fmt.string ppf ":"
  | Equal -> Fmt.string ppf "="
  | Arrow -> Fmt.string ppf "->"
  | Eqeq -> Fmt.string ppf "=="
  | Le -> Fmt.string ppf "<="
  | Eof -> Fmt.string ppf "end of input"

exception Error of string * int

type t = { src : string; mutable pos : int }

let of_string src = { src; pos = 0 }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c || c = '\''
let not_newline c = c <> '\n'

(* The end of the run of [pred] characters of [s] from [j]. *)
let rec span pred s j =
  if j < String.length s && pred (String.unsafe_get s j) then span pred s (j + 1)
  else j

let emit b pos t =
  b.pos <- pos;
  t

let rec next b =
  let s = b.src in
  let n = String.length s in
  let i = b.pos in
  if i >= n then Eof
  else
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' ->
      b.pos <- i + 1;
      next b
    | '#' ->
      b.pos <- span not_newline s i;
      next b
    | '(' -> emit b (i + 1) Lparen
    | ')' -> emit b (i + 1) Rparen
    | '[' -> emit b (i + 1) Lbracket
    | ']' -> emit b (i + 1) Rbracket
    | ',' -> emit b (i + 1) Comma
    | ';' -> emit b (i + 1) Semicolon
    | ':' -> emit b (i + 1) Colon
    | '-' when i + 1 < n && s.[i + 1] = '>' -> emit b (i + 2) Arrow
    | '=' when i + 1 < n && s.[i + 1] = '=' -> emit b (i + 2) Eqeq
    | '<' when i + 1 < n && s.[i + 1] = '=' -> emit b (i + 2) Le
    | '=' -> emit b (i + 1) Equal
    | '\'' -> (
      match String.index_from_opt s (i + 1) '\'' with
      | None -> raise (Error ("unterminated string literal", i))
      | Some j -> emit b (j + 1) (String (String.sub s (i + 1) (j - i - 1))))
    | '0' .. '9' -> (
      let j = span is_digit s i in
      match int_of_string_opt (String.sub s i (j - i)) with
      | Some v -> emit b j (Int v)
      | None -> raise (Error ("integer literal out of range", i)))
    | c when is_ident_start c ->
      let j = span is_ident_char s i in
      emit b j (Ident (String.sub s i (j - i)))
    | c -> raise (Error (Printf.sprintf "unexpected character %c" c, i))

let tokenize s =
  let b = of_string s in
  let rec go acc =
    match next b with
    | Eof -> Ok (List.rev acc)
    | t -> go (t :: acc)
    | exception Error (msg, pos) -> Error (msg, pos)
  in
  go []
