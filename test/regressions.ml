(* Seed-replay regression corpus.

   Every entry pins a workload seed against the named [seed -> bool]
   check it once exercised (or nearly broke).  The property suites keep
   exploring fresh seeds; this corpus guarantees the interesting ones
   never regress silently, and gives a future bug-fix PR a one-line way
   to pin its counterexample:

     add (check_name, seed) below, nothing else.

   Seeds fall in the generators' [0, 1_000_000] range.  The current
   entries are a spread of structurally distinct workloads (empty
   covers, multi-round RBR, conflict-heavy chases) observed while
   developing the observability layer. *)

let checks =
  [
    ("engine.drop_indexed_agrees", Test_engine.drop_indexed_agrees);
    ( "engine.reduce_agrees_with_iterated_drop",
      Test_engine.reduce_agrees_with_iterated_drop );
    ("engine.drop_indexed_agrees_small", Test_engine.drop_indexed_agrees_small);
    ( "engine.reduce_agrees_with_iterated_drop_small",
      Test_engine.reduce_agrees_with_iterated_drop_small );
    ("engine.masked_implies_agrees", Test_engine.masked_implies_agrees);
    ("engine.pooled_prune_agrees", Test_engine.pooled_prune_agrees);
    ( "engine.instrumentation_transparent",
      Test_engine.instrumentation_transparent );
    ("ir.roundtrip_canonical", Test_ir.roundtrip_canonical);
    ("ir.cover_conversion_edges", Test_ir.cover_conversion_edges);
    ("ir.mincover_ir_minimal", Test_ir.mincover_ir_minimal);
    ("ir.cover_minimal", Test_ir.cover_minimal);
    ("oracle.oracle_holds", Test_oracle.oracle_holds);
    ("provenance.provenance_sound", Test_provenance.provenance_sound);
    ("provenance.witness_replays", Test_provenance.witness_replays);
    ("serve.walk_matches_batch", Test_serve.walk_matches_batch);
    ("serve.sigma_order_invariant", Test_serve.sigma_order_invariant);
  ]

let corpus =
  [
    ("engine.drop_indexed_agrees", [ 0; 1; 42; 1664; 99_991; 524_287 ]);
    ( "engine.reduce_agrees_with_iterated_drop",
      [ 0; 7; 123; 4_096; 77_777; 999_983 ] );
    (* Seeds on which an RBR join that skips a constant producer's own
       constant, a resolvent test that misses the constant-vs-wildcard
       triviality, or a bucket scan that reads removed rows went wrong. *)
    ("engine.drop_indexed_agrees_small", [ 1; 4; 9; 12 ]);
    ("engine.reduce_agrees_with_iterated_drop_small", [ 9; 10; 12; 13; 21 ]);
    ("engine.masked_implies_agrees", [ 0; 13; 256; 31_337; 610_612 ]);
    ("engine.pooled_prune_agrees", [ 0; 5; 1_000; 86_028; 750_000 ]);
    ("engine.instrumentation_transparent", [ 0; 11; 2_024; 500_500 ]);
    ("ir.roundtrip_canonical", [ 0; 42; 7_919; 123_456; 999_999 ]);
    ("ir.cover_conversion_edges", [ 0; 11; 2_024; 500_500 ]);
    ("ir.mincover_ir_minimal", [ 1; 5; 12; 13; 19; 86_028 ]);
    ("ir.cover_minimal", [ 5; 8; 20; 24 ]);
    ("oracle.oracle_holds", [ 0; 3; 17; 404; 6_174; 271_828; 999_999 ]);
    ("provenance.provenance_sound", [ 0; 9; 301; 28_657; 832_040 ]);
    ("provenance.witness_replays", [ 0; 21; 1_729; 65_537; 987_654 ]);
    ("serve.walk_matches_batch", [ 0; 4; 19; 512; 6_765; 104_729; 888_888 ]);
    ("serve.sigma_order_invariant", [ 0; 8; 144; 46_368 ]);
  ]

let replay name check seed () =
  if not (check seed) then
    Alcotest.failf "pinned seed %d regressed on %s" seed name

let suite =
  List.concat_map
    (fun (name, seeds) ->
      let check =
        match List.assoc_opt name checks with
        | Some c -> c
        | None -> Fmt.failwith "regressions.ml: unknown check %s" name
      in
      List.map
        (fun seed ->
          (Fmt.str "%s / seed %d" name seed, `Quick, replay name check seed))
        seeds)
    corpus
