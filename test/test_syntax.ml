(* The concrete syntax: lexing, parsing, printing, round trips. *)

open Relational
open Fixtures
module L = Syntax.Lexer
module Parser = Syntax.Parser
module C = Cfds.Cfd

let check_str = Alcotest.(check string)

let parse_ok s =
  match Parser.parse_document s with
  | Ok d -> d
  | Error m -> Alcotest.failf "parse error: %s" m

let parse_err s =
  match Parser.parse_document s with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  | Error _ -> ()

let test_lexer_basics () =
  match L.tokenize "R1([A='x 1'] -> [B]); # comment\n==" with
  | Error _ -> Alcotest.fail "lexes"
  | Ok toks ->
    check_int "token count" 14 (List.length toks);
    check_bool "string with space" true
      (List.mem (L.String "x 1") toks);
    check_bool "eqeq" true (List.mem L.Eqeq toks)

let test_lexer_errors () =
  (match L.tokenize "'unterminated" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unterminated string");
  (match L.tokenize "a ? b" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad character");
  match L.tokenize "A=99999999999999999999999" with
  | Error (msg, pos) ->
    check_str "overflow message" "integer literal out of range" msg;
    check_int "overflow offset" 2 pos
  | Ok _ -> Alcotest.fail "integer literal out of range"

let test_parse_schema () =
  let d =
    parse_ok
      "schema R(A: string, B: int, C: bool, D: enum(1, 2, 3));"
  in
  let r = Schema.find d.Parser.schema "R" in
  check_int "arity" 4 (Schema.arity r);
  check_bool "enum finite" true (Attribute.is_finite (Schema.attr r "D"));
  check_bool "bool finite" true (Attribute.is_finite (Schema.attr r "C"));
  check_int "enum size" 3
    (List.length (Domain.members (Attribute.domain (Schema.attr r "D"))))

let test_parse_cfds () =
  let d =
    parse_ok
      "schema R(A: string, B: string, C: string);\n\
       cfd R([A='a', B] -> [C='c']);\n\
       cfd R([A] -> [B, C]);\n\
       cfd R(A == B);"
  in
  (* The two-RHS CFD normalises into two. *)
  check_int "four CFDs" 4 (List.length d.Parser.cfds);
  check_bool "attr-eq parsed" true
    (List.exists C.is_attr_eq d.Parser.cfds)

let test_parse_empty_lhs () =
  let d =
    parse_ok "schema R(A: string);\ncfd R([] -> [A='k']);"
  in
  match d.Parser.cfds with
  | [ c ] -> check_int "empty lhs" 0 (List.length c.C.lhs)
  | _ -> Alcotest.fail "one CFD"

let test_parse_view () =
  let d =
    parse_ok
      "schema R(A: string, B: string);\n\
       schema S(C: string);\n\
       view V = from [R(A, B), S(C)] where [A=C, B='b'] constants [K='k'] project [K, A, B];"
  in
  match d.Parser.views with
  | [ v ] ->
    check_int "atoms" 2 (List.length v.Spc.atoms);
    check_int "selection" 2 (List.length v.Spc.selection);
    check_int "constants" 1 (List.length v.Spc.constants);
    Alcotest.(check (list string)) "projection" [ "K"; "A"; "B" ] v.Spc.projection
  | _ -> Alcotest.fail "one view"

let test_parse_errors () =
  parse_err "schema R(A: string); cfd R([A] -> []);";
  parse_err "schema R(A: string); view V = from [R(A)];";
  parse_err "schema R(A: string); view V = from [Z(A)] project [A];";
  parse_err "schema R(A: string); cfd R([A -> [B]);";
  parse_err "bogus;"

let parse_message s =
  match Parser.parse_document s with
  | Ok _ -> Alcotest.failf "expected an error for %S" s
  | Error m -> m

(* Declarations that the smart constructors reject are reported as
   errors; none escapes [parse_document] as an exception. *)
let test_rejected_declarations () =
  check_str "integer literal out of range"
    "lexical error at offset 9: integer literal out of range"
    (parse_message "cfd R([A=99999999999999999999999] -> [B]);");
  check_str "duplicate LHS attribute" "Cfd.make: duplicate LHS attribute A"
    (parse_message "cfd R([A, A] -> [B]);");
  check_str "duplicate schema attribute"
    "Schema.relation R: duplicate attribute A"
    (parse_message "schema R(A: int, A: int);");
  check_str "empty enum" "Domain.finite: empty domain"
    (parse_message "schema R(A: enum());");
  (* A CFD on a declared relation or view names only its attributes; one
     on an undeclared name is left to the caller ("UNKNOWN VIEW"). *)
  let doc =
    "schema R1(AC: string, city: string, zip: string);\n\
     view V1 = from [R1(AC, city, zip)] project [AC, city];\n"
  in
  check_str "unknown source attribute"
    "cfd R1([bogus] -> city): R1 has no attribute bogus"
    (parse_message (doc ^ "cfd R1([bogus] -> [city]);"));
  check_str "unknown RHS attribute"
    "cfd R1([AC] -> bogus): R1 has no attribute bogus"
    (parse_message (doc ^ "cfd R1([AC] -> [bogus]);"));
  check_str "unknown view attribute"
    "cfd V1([bogus] -> bogus2): V1 has no attribute bogus"
    (parse_message (doc ^ "cfd V1([bogus] -> [bogus2]);"));
  check_str "source attribute the view drops"
    "cfd V1([zip] -> city): V1 has no attribute zip"
    (parse_message (doc ^ "cfd V1([zip] -> [city]);"));
  check_int "CFD on an undeclared relation kept" 1
    (List.length (parse_ok (doc ^ "cfd W([AC] -> [city]);")).Parser.cfds)

(* Tokens are lexed as the parser asks for them, yet a lexical error
   anywhere in the input still wins over an earlier parse error. *)
let test_error_precedence () =
  let bad_parse = "cfd R([A=1] -> [B]));" in
  check_str "parse error alone" "expected ; but found )"
    (parse_message (bad_parse ^ "\ncfd R([C] -> [D]);"));
  let s = bad_parse ^ "\ncfd R([C] -> [D]);\ncfd R([E] -> [F]); ?" in
  check_str "later lexical error wins"
    (Printf.sprintf "lexical error at offset %d: unexpected character ?"
       (String.index s '?'))
    (parse_message s);
  check_str "later unterminated string wins"
    "lexical error at offset 22: unterminated string literal"
    (parse_message (bad_parse ^ " 'abc"))

let test_roundtrip_document () =
  let text =
    "schema R1(AC: string, city: string, zip: string);\n\
     cfd R1([AC] -> [city]);\n\
     cfd R1([AC='20'] -> [city='LDN']);\n\
     cfd R1(AC == zip);\n\
     view V = from [R1(AC, city, zip)] where [AC='20'] constants [CC='44'] project [CC, AC, city, zip];"
  in
  let d = parse_ok text in
  let printed = Fmt.str "%a" Parser.print_document d in
  let d2 = parse_ok printed in
  check_int "same CFD count" (List.length d.Parser.cfds) (List.length d2.Parser.cfds);
  List.iter2
    (fun a b -> Alcotest.check cfd_testable "cfd roundtrip" a b)
    d.Parser.cfds d2.Parser.cfds;
  match d.Parser.views, d2.Parser.views with
  | [ v1 ], [ v2 ] ->
    check_bool "view roundtrip" true
      (Schema.equal_relation (Spc.view_schema v1) (Spc.view_schema v2))
  | _ -> Alcotest.fail "views"

let test_parse_then_decide () =
  (* End-to-end: parse the running example file shape and decide. *)
  let d =
    parse_ok
      "schema R1(AC: string, city: string, zip: string, street: string);\n\
       cfd R1([zip] -> [street]);\n\
       view V = from [R1(AC, city, zip, street)] constants [CC='44'] project [CC, AC, city, zip, street];"
  in
  match d.Parser.views with
  | [ v ] ->
    let phi =
      C.make "V"
        [ ("CC", Cfds.Pattern.Const (str "44")); ("zip", Cfds.Pattern.Wild) ]
        ("street", Cfds.Pattern.Wild)
    in
    (match Propagate.decide v ~sigma:d.Parser.cfds phi with
     | Propagate.Propagated -> ()
     | _ -> Alcotest.fail "phi1 via parsed input")
  | _ -> Alcotest.fail "one view"

let suite =
  [
    ("lexer basics", `Quick, test_lexer_basics);
    ("lexer errors", `Quick, test_lexer_errors);
    ("schema parsing", `Quick, test_parse_schema);
    ("cfd parsing", `Quick, test_parse_cfds);
    ("empty-LHS cfd parsing", `Quick, test_parse_empty_lhs);
    ("view parsing", `Quick, test_parse_view);
    ("parse errors", `Quick, test_parse_errors);
    ("rejected declarations are errors", `Quick, test_rejected_declarations);
    ("lexical errors win over parse errors", `Quick, test_error_precedence);
    ("document roundtrip", `Quick, test_roundtrip_document);
    ("parse then decide", `Quick, test_parse_then_decide);
  ]
