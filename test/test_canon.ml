(* Chase.Canon: order-preserving view canonicalisation and its soundness
   property — the cover computed via the canonical representative, with the
   renaming inverted, is byte-identical to the direct Propcover.cover. *)

open Relational
open Fixtures
module C = Cfds.Cfd
module Canon = Chase.Canon
module Provenance = Propagation.Provenance

let cfds = Alcotest.(list cfd_testable)

(* --- mechanics -------------------------------------------------------- *)

let test_canonicalize_shape () =
  match Canon.canonicalize q1 with
  | Error e -> Alcotest.fail e
  | Ok (cv, ren) ->
    Alcotest.(check string) "view renamed" "~V" cv.Spc.name;
    check_int "atoms kept" (List.length q1.Spc.atoms) (List.length cv.Spc.atoms);
    let first = List.hd cv.Spc.atoms in
    Alcotest.(check (list string))
      "positional attr names"
      [ "~0_0"; "~0_1"; "~0_2"; "~0_3"; "~0_4"; "~0_5" ]
      (List.map Attribute.name first.Spc.attrs);
    (* Rc attribute CC becomes ~c0 and stays projected first. *)
    Alcotest.(check string)
      "rc attr" "~c0"
      (Attribute.name (fst (List.hd cv.Spc.constants)));
    Alcotest.(check string) "projection head" "~c0" (List.hd cv.Spc.projection);
    (* The renaming round-trips. *)
    List.iter
      (fun (o, c) ->
        Alcotest.(check (option string))
          "inverse" (Some o)
          (List.assoc_opt c ren.Canon.of_canonical))
      ren.Canon.to_canonical;
    Alcotest.(check string) "original name kept" "V" ren.Canon.view_name

let test_isomorphic_views_share_key () =
  (* q1 and q3 differ only in base relation (R1 vs R3, same attrs) and the
     Rc constant — different keys.  A pure renaming of q1 shares its key. *)
  let renamed =
    Spc.make_exn ~source:sources ~name:"W"
      ~constants:[ (Attribute.make "cc" Domain.string, str "44") ]
      ~atoms:[ Spc.atom sources "R1" [ "a"; "b"; "c"; "d"; "e"; "f" ] ]
      ~projection:[ "cc"; "a"; "b"; "c"; "d"; "e"; "f" ]
      ()
  in
  let key v =
    match Canon.canonicalize v with
    | Ok (cv, _) -> Canon.key cv
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "renaming shares key" (key q1) (key renamed);
  check_bool "different constant, different key" false
    (String.equal (key q1) (key q3))

let test_reserved_prefix_rejected () =
  let db =
    Schema.db
      [ Schema.relation "R" [ Attribute.make "~A" Domain.string ] ]
  in
  let v =
    Spc.make_exn ~source:db ~name:"V"
      ~atoms:[ Spc.atom db "R" [ "~x" ] ]
      ~projection:[ "~x" ] ()
  in
  (match Canon.canonicalize v with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "reserved prefix accepted");
  check_bool "verified on identity still fine" true
    (match Canon.canonicalize q1 with
     | Ok (cv, ren) -> Canon.verified q1 cv ren
     | Error _ -> false)

(* --- the soundness property ------------------------------------------- *)

(* The fleet driver's inversion, spelled out: cover on the canonical view,
   renamed back and re-sorted. *)
let cover_via_canonical ?provenance v sigma =
  match Canon.canonicalize v with
  | Error e -> Alcotest.fail e
  | Ok (cv, ren) ->
    check_bool "canonicalisation verified" true (Canon.verified v cv ren);
    let r = Propcover.cover ?provenance cv sigma in
    if r.Propcover.always_empty then Propcover.empty_view_cover v
    else
      r.Propcover.cover
      |> List.map (fun c ->
             match C.rename_attrs c ren.Canon.of_canonical with
             | Some c' -> C.canonical (C.with_rel c' v.Spc.name)
             | None -> Alcotest.fail "non-bijective inverse renaming")
      |> List.sort C.compare

let seeded_pair seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:4 ~min_arity:4 ~max_arity:6
  in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count:30 ~max_lhs:3 ~var_pct:50
  in
  let v = Workload.View_gen.generate rng ~schema ~y:6 ~f:3 ~ec:2 in
  (v, sigma)

let test_property_canonical_cover_identical () =
  for seed = 1 to 40 do
    let v, sigma = seeded_pair seed in
    let direct = (Propcover.cover v sigma).Propcover.cover in
    let via = cover_via_canonical v sigma in
    Alcotest.check cfds (Printf.sprintf "seed %d" seed) direct via
  done

let test_property_with_provenance () =
  (* Same identity with both runs recording (as --why does), each into
     its own recorder: canonicalisation must still invert cleanly, and
     every cover member of the direct run has a recorded derivation. *)
  for seed = 41 to 52 do
    let v, sigma = seeded_pair seed in
    let prov = Provenance.create () in
    let r = Propcover.cover ~provenance:prov v sigma in
    let via = cover_via_canonical ~provenance:(Provenance.create ()) v sigma in
    Alcotest.check cfds (Printf.sprintf "seed %d (why)" seed) r.Propcover.cover via;
    if not r.Propcover.always_empty then
      List.iter
        (fun c ->
          check_bool
            (Fmt.str "seed %d: %a has a derivation" seed C.pp c)
            true
            (Provenance.find prov c <> None))
        r.Propcover.cover
  done

let test_paper_example_canonical_cover () =
  let sigma = [ f1; f2; cfd1 ] in
  let direct = (Propcover.cover q1 sigma).Propcover.cover in
  Alcotest.check cfds "fig. 1 branch" direct (cover_via_canonical q1 sigma)

let suite =
  [
    ("canonical shape", `Quick, test_canonicalize_shape);
    ("isomorphic views share key", `Quick, test_isomorphic_views_share_key);
    ("reserved prefix rejected", `Quick, test_reserved_prefix_rejected);
    ("paper example via canonical", `Quick, test_paper_example_canonical_cover);
    ( "40 seeded covers byte-identical",
      `Slow,
      test_property_canonical_cover_identical );
    ("12 seeded covers with provenance", `Slow, test_property_with_provenance);
  ]
