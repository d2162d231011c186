(* A guided walkthrough of Section 4's machinery on the paper's own worked
   examples — useful for following the algorithm step by step.

     dune exec examples/paper_walkthrough.exe *)

open Core
open Relational
module C = Cfds.Cfd
module P = Cfds.Pattern
module PC = Propagation.Propcover
module Rbr = Propagation.Rbr

let str = Value.str
let const s = P.Const (str s)
let section title = Fmt.pr "@.=== %s ===@.@." title

let () =
  Format.pp_set_margin Format.std_formatter 10_000;

  (* ------------------------------------------------------------------ *)
  section "Example 4.2: an A-resolvent";
  let phi1 = C.make "R" [ ("A1", P.Wild); ("A2", const "c") ] ("A", const "a") in
  let phi2 =
    C.make "R" [ ("A", P.Wild); ("A2", const "c"); ("B1", const "b") ] ("B", P.Wild)
  in
  Fmt.pr "phi1 = %a@." C.pp phi1;
  Fmt.pr "phi2 = %a@." C.pp phi2;
  (match Rbr.resolvent phi1 phi2 ~on:"A" with
   | Some r -> Fmt.pr "A-resolvent: %a@." C.pp r
   | None -> Fmt.pr "no resolvent@.");

  (* ------------------------------------------------------------------ *)
  section "Example 4.3: PropCFD_SPC end to end";
  let sd = Domain.string in
  let r1 = Schema.relation "R1" [ Attribute.make "B1p" sd; Attribute.make "B2" sd ] in
  let r2 =
    Schema.relation "R2"
      [ Attribute.make "A1" sd; Attribute.make "A2" sd; Attribute.make "A" sd ]
  in
  let r3 =
    Schema.relation "R3"
      [
        Attribute.make "Ap" sd; Attribute.make "A2p" sd;
        Attribute.make "B1" sd; Attribute.make "B" sd;
      ]
  in
  let db = Schema.db [ r1; r2; r3 ] in
  let view =
    Spc.make_exn ~source:db ~name:"V"
      ~selection:
        [ Spc.Sel_eq ("B1", "B1p"); Spc.Sel_eq ("A", "Ap"); Spc.Sel_eq ("A2", "A2p") ]
      ~atoms:
        [
          Spc.atom db "R1" [ "B1p"; "B2" ];
          Spc.atom db "R2" [ "A1"; "A2"; "A" ];
          Spc.atom db "R3" [ "Ap"; "A2p"; "B1"; "B" ];
        ]
      ~projection:[ "B1"; "B2"; "B1p"; "A1"; "A2"; "B" ]
      ()
  in
  let psi1 = C.make "R2" [ ("A1", P.Wild); ("A2", const "c") ] ("A", const "a") in
  let psi2 =
    C.make "R3" [ ("Ap", P.Wild); ("A2p", const "c"); ("B1", const "b") ] ("B", P.Wild)
  in
  Fmt.pr "V = %a@." Spc.pp view;
  Fmt.pr "Sigma = { %a ; %a }@.@." C.pp psi1 C.pp psi2;

  (* The full algorithm, recording why-provenance: each cover CFD's
     derivation shows the pipeline's own steps — line 1's normalisation,
     the renaming of lines 5-10, RBR's resolvents and ComputeEQ's
     classes — down to the source CFDs. *)
  let provenance = Propagation.Provenance.create () in
  let r = PC.cover ~provenance view [ psi1; psi2 ] in
  Fmt.pr "minimal propagation cover:@.";
  List.iter (fun c -> Fmt.pr "  %a@." C.pp c) r.PC.cover;
  Fmt.pr "@.derivations:@.";
  List.iter
    (fun c ->
      Fmt.pr "@.";
      Propagation.Provenance.pp_tree provenance Format.std_formatter c)
    r.PC.cover;
  Fmt.pr
    "@.note: the paper lists phi = V([A1, A2='c', B1='b'] -> B).  Under@.\
     Definition 2.1's pair-(t,t) semantics, psi1's wildcard A1 is redundant,@.\
     so the minimal cover carries the strictly stronger CFD without A1 —@.\
     which implies the paper's phi (see DESIGN.md, 'Findings').@.";

  (* ------------------------------------------------------------------ *)
  section "Example 4.1: the inherently exponential family (n = 3)";
  let n = 3 in
  let attrs =
    List.concat
      (List.init n (fun i ->
           let i = i + 1 in
           [ Printf.sprintf "A%d" i; Printf.sprintf "B%d" i; Printf.sprintf "C%d" i ]))
    @ [ "D" ]
  in
  let schema = Schema.relation "R" (List.map (fun a -> Attribute.make a sd) attrs) in
  let exdb = Schema.db [ schema ] in
  let cs = List.init n (fun i -> Printf.sprintf "C%d" (i + 1)) in
  let sigma =
    List.concat
      (List.init n (fun i ->
           let i = i + 1 in
           [
             C.fd "R" [ Printf.sprintf "A%d" i ] (Printf.sprintf "C%d" i);
             C.fd "R" [ Printf.sprintf "B%d" i ] (Printf.sprintf "C%d" i);
           ]))
    @ [ C.fd "R" cs "D" ]
  in
  let y = List.filter (fun a -> not (List.mem a cs)) attrs in
  let pview =
    Spc.make_exn ~source:exdb ~name:"W" ~atoms:[ Spc.atom exdb "R" attrs ]
      ~projection:y ()
  in
  let r = PC.cover pview sigma in
  Fmt.pr "|Sigma| = %d FDs; dropping C1..C%d gives a cover of %d CFDs (2^%d = %d of them determine D):@."
    (List.length sigma) n
    (List.length r.PC.cover)
    n (1 lsl n);
  List.iter
    (fun c -> if String.equal (fst c.C.rhs) "D" then Fmt.pr "  %a@." C.pp c)
    r.PC.cover
