(* The duration channel: bucket-layout laws (exact low range, bounded
   relative error, monotone mapping, inverse round-trip), merge algebra,
   the quantile-vs-sorted-oracle property (bucket-level exactness on
   random streams), spans as histograms, one flag per channel,
   multi-domain flushing through the pool when *only* the duration
   channel is on, and instrumentation transparency — a serve session's
   responses are byte-identical with the channel on and off. *)

module Gen = QCheck2.Gen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_hists f =
  Obs.set_hist_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_hist_enabled false;
      Obs.reset ())
    f

let find_hist name =
  match List.assoc_opt name (Obs.snapshot ()).Obs.hists with
  | Some h -> h
  | None -> Alcotest.failf "histogram %s not in snapshot" name

(* ------------------------------------------------------------------ *)
(* Bucket layout *)

let test_bucket_layout () =
  (* Inverse round-trip: every bucket's lower bound maps back to it, and
     the value just below the (finite) upper bound stays inside. *)
  for i = 0 to Obs.hist_buckets - 1 do
    check_int
      (Printf.sprintf "lower bound of %d round-trips" i)
      i
      (Obs.bucket_of_us (Obs.bucket_lower_us i));
    let hi = Obs.bucket_upper_us i in
    if hi < infinity then
      check_int
        (Printf.sprintf "top of bucket %d stays inside" i)
        i
        (Obs.bucket_of_us (hi -. 1.))
  done;
  (* Contiguity: upper i = lower (i+1). *)
  for i = 0 to Obs.hist_buckets - 2 do
    check_bool "contiguous" true
      (Obs.bucket_upper_us i = Obs.bucket_lower_us (i + 1))
  done;
  (* The first 16 buckets are exact (width 1 µs). *)
  for i = 0 to 15 do
    check_bool "exact low range" true
      (Obs.bucket_upper_us i -. Obs.bucket_lower_us i = 1.)
  done;
  (* Relative bucket error <= 6.25% everywhere below the overflow
     bucket: width / lower <= 1/16. *)
  for i = 16 to Obs.hist_buckets - 2 do
    let lo = Obs.bucket_lower_us i and hi = Obs.bucket_upper_us i in
    check_bool
      (Printf.sprintf "relative width of bucket %d" i)
      true
      ((hi -. lo) /. lo <= 1. /. 16.)
  done;
  (* Clamping: garbage below 1 (including NaN) lands in bucket 0, the
     absurdly large in the overflow bucket. *)
  check_int "negative clamps" 0 (Obs.bucket_of_us (-5.));
  check_int "nan clamps" 0 (Obs.bucket_of_us Float.nan);
  check_int "zero clamps" 0 (Obs.bucket_of_us 0.);
  check_int "huge overflows" (Obs.hist_buckets - 1)
    (Obs.bucket_of_us 1e18);
  check_int "overflow lower bound is the overflow bucket"
    (Obs.hist_buckets - 1)
    (Obs.bucket_of_us (Obs.bucket_lower_us (Obs.hist_buckets - 1)))

let prop_bucket_monotone =
  QCheck2.Test.make ~name:"bucket_of_us is monotone" ~count:200
    (Gen.pair (Gen.float_bound_exclusive 1e9) (Gen.float_bound_exclusive 1e9))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Obs.bucket_of_us lo <= Obs.bucket_of_us hi)

(* ------------------------------------------------------------------ *)
(* Merge algebra on constructed hists *)

let mk count sum mx buckets =
  Obs.{ h_count = count; h_sum_us = sum; h_max_us = mx; h_buckets = buckets }

let test_merge_laws () =
  let open Obs in
  let h1 = mk 3 6. 3. [ (1, 1); (2, 1); (3, 1) ] in
  let h2 = mk 2 130. 120. [ (2, 1); (70, 1) ] in
  let empty = mk 0 0. 0. [] in
  let m = hist_merge h1 h2 in
  check_int "count adds" 5 m.h_count;
  check_bool "sum adds" true (m.h_sum_us = 136.);
  check_bool "max maxes" true (m.h_max_us = 120.);
  check_bool "buckets sum pointwise" true
    (m.h_buckets = [ (1, 1); (2, 2); (3, 1); (70, 1) ]);
  check_bool "commutative" true (hist_merge h2 h1 = m);
  check_bool "left identity" true (hist_merge empty h1 = h1);
  check_bool "right identity" true (hist_merge h1 empty = h1);
  check_bool "associative" true
    (hist_merge (hist_merge h1 h2) h1 = hist_merge h1 (hist_merge h2 h1))

(* ------------------------------------------------------------------ *)
(* Quantile vs. a sorted-array oracle.  The histogram quantile promises
   bucket-level exactness: its answer falls in the same bucket as the
   rank-based quantile of the raw stream. *)

let gen_stream =
  (* Log-uniform-ish magnitudes: the layout must hold across scales. *)
  let gen_value =
    Gen.map
      (fun (mant, exp) -> mant *. (10. ** float_of_int exp))
      (Gen.pair (Gen.float_range 0.1 10.) (Gen.int_range 0 7))
  in
  Gen.list_size (Gen.int_range 1 400) gen_value

let prop_quantile_oracle =
  QCheck2.Test.make ~name:"quantile agrees with sorted oracle (bucket-level)"
    ~count:40 gen_stream (fun values ->
      with_hists @@ fun () ->
      let h = Obs.histogram "test.hist.oracle" in
      List.iter (Obs.observe_us h) values;
      let snap = find_hist "test.hist.oracle" in
      let sorted = List.sort compare values in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          let oracle = arr.(rank - 1) in
          Obs.bucket_of_us (Obs.hist_quantile snap q)
          = Obs.bucket_of_us oracle)
        [ 0.5; 0.9; 0.95; 0.99; 1.0 ])

let test_quantile_exact_stats () =
  with_hists @@ fun () ->
  let h = Obs.histogram "test.hist.stats" in
  List.iter (Obs.observe_us h) [ 3.5; 100.; 7.25; 42. ];
  let s = find_hist "test.hist.stats" in
  check_int "count" 4 s.Obs.h_count;
  (* Sum and max keep the exact values even though buckets floor. *)
  check_bool "sum exact" true (s.Obs.h_sum_us = 152.75);
  check_bool "max exact" true (s.Obs.h_max_us = 100.);
  check_bool "quantile capped at max" true (Obs.hist_quantile s 1.0 <= 100.);
  check_bool "empty quantile" true
    (Obs.hist_quantile (mk 0 0. 0. []) 0.5 = 0.)

let test_enable_resets () =
  Obs.set_hist_enabled true;
  let h = Obs.histogram "test.hist.reset" in
  Obs.observe_us h 5.;
  check_int "recorded" 1 (find_hist "test.hist.reset").Obs.h_count;
  (* Re-enabling starts a fresh collection window. *)
  Obs.set_hist_enabled true;
  check_bool "cleared on enable" true
    (List.assoc_opt "test.hist.reset" (Obs.snapshot ()).Obs.hists = None);
  Obs.observe_us h 5.;
  Obs.set_hist_enabled false;
  (* Disabled: buckets stay readable, new observations are dropped. *)
  Obs.observe_us h 5.;
  check_int "readable after disable, no late counts" 1
    (find_hist "test.hist.reset").Obs.h_count;
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Spans are histograms, and each channel has its own flag. *)

(* Spin until the monotonic clock has advanced by [us] µs. *)
let spin_us us =
  let t0 = Obs.now () in
  while (Obs.now () -. t0) *. 1e6 < us do
    ()
  done

let test_span_is_histogram () =
  Obs.reset ();
  with_hists @@ fun () ->
  check_bool "counter channel stays off" false (Obs.enabled ());
  let h = Obs.histogram "test.hist.span" in
  (* Each recorded duration lies between the body's own spin and the
     caller's measurement around [with_span]. *)
  let outer =
    List.map
      (fun us ->
        let t0 = Obs.now () in
        Obs.with_span h (fun () -> spin_us us);
        (Obs.now () -. t0) *. 1e6)
      [ 100.; 300.; 200. ]
  in
  let s = Obs.snapshot () in
  let hs = List.assoc "test.hist.span" s.Obs.hists in
  check_int "one observation per span" 3 hs.Obs.h_count;
  check_bool "sum bracketed" true
    (hs.Obs.h_sum_us >= 600. && hs.Obs.h_sum_us <= List.fold_left ( +. ) 0. outer);
  check_bool "max bracketed" true
    (hs.Obs.h_max_us >= 300. && hs.Obs.h_max_us <= List.fold_left Float.max 0. outer);
  check_bool "spans are the (count, seconds) projection" true
    Obs.(s.spans = List.map (fun (n, h) -> (n, (h.h_count, h.h_sum_us *. 1e-6))) s.hists);
  check_bool "no counters recorded" true (s.Obs.counters = [])

let test_counters_without_durations () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  check_bool "duration channel stays off" false (Obs.hist_enabled ());
  let h = Obs.histogram "test.hist.untimed" in
  let c = Obs.counter "test.hist.counted" in
  Obs.with_span h (fun () -> Obs.incr c);
  let s = Obs.snapshot () in
  check_bool "counter recorded" true (s.Obs.counters = [ ("test.hist.counted", 1) ]);
  check_bool "no duration recorded" true Obs.(s.hists = [] && s.spans = [])

let test_flags_reset_own_channel () =
  Obs.reset ();
  let h = Obs.histogram "test.hist.own" in
  let c = Obs.counter "test.hist.own" in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.set_hist_enabled false;
      Obs.reset ())
  @@ fun () ->
  Obs.set_hist_enabled true;
  Obs.observe_us h 5.;
  Obs.set_enabled true;
  check_int "set_enabled true keeps the histograms" 1
    (find_hist "test.hist.own").Obs.h_count;
  Obs.incr c;
  Obs.set_hist_enabled true;
  let s = Obs.snapshot () in
  check_bool "set_hist_enabled true keeps the counters" true
    (List.assoc_opt "test.hist.own" s.Obs.counters = Some 1);
  check_bool "set_hist_enabled true clears the histograms" true
    (List.assoc_opt "test.hist.own" s.Obs.hists = None)

(* ------------------------------------------------------------------ *)
(* Multi-domain flush: with *only* the duration channel on, pool
   workers must still flush their domain-local shards at task end. *)

let test_pool_flush () =
  with_hists @@ fun () ->
  check_bool "counter channel stays off" false (Obs.enabled ());
  let h = Obs.histogram "test.hist.pool" in
  Parallel.Pool.with_pool ~size:4 (fun pool ->
      ignore
        (Parallel.Pool.map ~pool
           (fun i ->
             Obs.observe_us h (float_of_int (1 + (i mod 50)));
             i)
           (List.init 64 Fun.id)));
  let s = find_hist "test.hist.pool" in
  check_int "every worker's observations flushed" 64 s.Obs.h_count

(* Each task's duration lands in its worker's busy-time histogram. *)
let test_pool_busy () =
  Obs.reset ();
  with_hists @@ fun () ->
  Parallel.Pool.with_pool ~size:3 (fun pool ->
      ignore (Parallel.Pool.map ~pool (fun i -> i + 1) (List.init 10 Fun.id)));
  let busy =
    List.filter
      (fun (n, _) ->
        String.starts_with ~prefix:"pool.worker" n
        && String.ends_with ~suffix:".busy" n)
      (Obs.snapshot ()).Obs.hists
  in
  check_int "one busy observation per task" 10
    (List.fold_left (fun acc (_, h) -> acc + h.Obs.h_count) 0 busy)

(* ------------------------------------------------------------------ *)
(* Instrumentation transparency: the same request script produces
   byte-identical responses with the duration channel off and on. *)

let test_transparency () =
  let script =
    [
      Printf.sprintf "{\"op\": \"open\", \"session\": \"s\", \"doc\": %s}"
        (Serve.Json.to_string (Serve.Json.Str
           "schema R1(AC: string, phn: string, name: string, street: \
            string, city: string, zip: string); cfd R1([zip] -> \
            [street]); cfd R1([AC] -> [city]); view V = from [R1(AC, \
            phn, name, street, city, zip)] constants [CC='44'] project \
            [CC, AC, phn, name, street, city, zip];"));
      "{\"op\": \"cover\", \"session\": \"s\"}";
      "{\"op\": \"propagates\", \"session\": \"s\", \"cfd\": \"V([zip] -> \
       [street])\"}";
      "{\"op\": \"add_cfd\", \"session\": \"s\", \"cfd\": \"R1([city] -> \
       [AC])\"}";
      "{\"op\": \"cover\", \"session\": \"s\"}";
      "{\"op\": \"remove_cfd\", \"session\": \"s\", \"cfd\": \"R1([city] \
       -> [AC])\"}";
      "{\"op\": \"close\", \"session\": \"s\"}";
    ]
  in
  let run () =
    let t = Serve.Server.create () in
    List.map (Serve.Server.handle_line t) script
  in
  let off = run () in
  let on_ = with_hists run in
  List.iter2 (Alcotest.(check string) "byte-identical response") off on_

let suite =
  [
    Alcotest.test_case "bucket layout" `Quick test_bucket_layout;
    Alcotest.test_case "merge laws" `Quick test_merge_laws;
    Alcotest.test_case "exact stats beside buckets" `Quick
      test_quantile_exact_stats;
    Alcotest.test_case "enable resets shards" `Quick test_enable_resets;
    Alcotest.test_case "span is a histogram" `Quick test_span_is_histogram;
    Alcotest.test_case "counters without durations" `Quick
      test_counters_without_durations;
    Alcotest.test_case "each flag resets its own channel" `Quick
      test_flags_reset_own_channel;
    Alcotest.test_case "pool flushes hist-only" `Quick test_pool_flush;
    Alcotest.test_case "pool busy time per task" `Quick test_pool_busy;
    Alcotest.test_case "transparency on/off" `Quick test_transparency;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_bucket_monotone; prop_quantile_oracle ]
