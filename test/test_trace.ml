(* The trace-event recorder: ring-buffer overflow discipline (drops are
   counted, earlier events survive, B/E pairs are never split), JSON
   export well-formedness, and well-nestedness across pool tasks —
   including the inline execution of nested [Pool.map]s. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_trace ?capacity f =
  Option.iter Obs.set_trace_capacity capacity;
  Obs.set_trace_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_trace_enabled false;
      Obs.reset ();
      Obs.set_trace_capacity 65536)
    f

(* Per track: timestamps monotone, every 'E' closes the innermost open
   'B' of the same name, nothing left open. *)
let well_nested events =
  let stacks = Hashtbl.create 4 in
  let last_ts = Hashtbl.create 4 in
  List.for_all
    (fun (e : Obs.event) ->
      let ok_ts =
        match Hashtbl.find_opt last_ts e.Obs.tid with
        | Some t -> e.Obs.ts_us >= t
        | None -> true
      in
      Hashtbl.replace last_ts e.Obs.tid e.Obs.ts_us;
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt stacks e.Obs.tid)
      in
      ok_ts
      &&
      match e.Obs.ph with
      | 'B' ->
        Hashtbl.replace stacks e.Obs.tid (e.Obs.ev_name :: stack);
        true
      | 'E' ->
        (match stack with
         | top :: rest when String.equal top e.Obs.ev_name ->
           Hashtbl.replace stacks e.Obs.tid rest;
           true
         | _ -> false)
      | _ -> true)
    events
  && Hashtbl.fold (fun _ st acc -> acc && st = []) stacks true

let test_basic_record () =
  with_trace @@ fun () ->
  Obs.trace_begin "outer";
  Obs.trace_instant ~args:[ ("k", "1") ] "tick";
  Obs.trace_begin "inner";
  Obs.trace_end "inner";
  Obs.trace_end "outer";
  let evs = Obs.trace_events () in
  check_int "event count" 5 (List.length evs);
  check_bool "well nested" true (well_nested evs);
  check_int "no drops" 0 (Obs.trace_dropped ())

(* Overflow: with capacity 8 the ring fills; later events are dropped and
   counted, the earlier ones survive intact, and no 'B' is ever left
   without its 'E' — a suppressed begin suppresses its end too. *)
let test_overflow_drops () =
  with_trace ~capacity:8 @@ fun () ->
  for i = 1 to 50 do
    Obs.trace_begin "span";
    Obs.trace_instant ~args:[ ("i", string_of_int i) ] "tick";
    Obs.trace_end "span"
  done;
  let evs = Obs.trace_events () in
  check_bool "dropped some" true (Obs.trace_dropped () > 0);
  check_bool "kept some" true (List.length evs > 0);
  check_bool "kept at most capacity" true (List.length evs <= 8);
  check_bool "well nested despite drops" true (well_nested evs);
  (* The earliest events survive (drop-new, never overwrite-old). *)
  match List.find_opt (fun (e : Obs.event) -> e.Obs.ph = 'i') evs with
  | Some e -> check_bool "first instant intact" true (e.Obs.ev_args = [ ("i", "1") ])
  | None -> Alcotest.fail "no instant survived"

(* A 'B' recorded while the ring still has room must keep the slot for
   its 'E' even when instants try to exhaust the buffer in between. *)
let test_open_span_reservation () =
  with_trace ~capacity:8 @@ fun () ->
  Obs.trace_begin "outer";
  for _ = 1 to 20 do
    Obs.trace_instant "spam"
  done;
  Obs.trace_begin "late";
  (* 'late' may or may not fit; either way its end must pair up. *)
  Obs.trace_end "late";
  Obs.trace_end "outer";
  let evs = Obs.trace_events () in
  check_bool "well nested under reservation" true (well_nested evs);
  let count ph = List.length (List.filter (fun (e : Obs.event) -> e.Obs.ph = ph) evs) in
  check_int "every B has its E" (count 'B') (count 'E')

let test_reset_clears () =
  with_trace @@ fun () ->
  Obs.trace_begin "x";
  Obs.trace_end "x";
  ignore (Obs.trace_events ());
  Obs.reset ();
  check_int "events cleared" 0 (List.length (Obs.trace_events ()));
  check_int "drop counter cleared" 0 (Obs.trace_dropped ())

let test_json_export () =
  with_trace @@ fun () ->
  Obs.trace_begin ~args:[ ("n", "3") ] "phase";
  Obs.trace_instant ~args:[ ("label", "he said \"hi\"") ] "note";
  Obs.trace_end "phase";
  let json = Obs.trace_to_json () in
  let doc = Mini_json.parse json in
  let evs = Mini_json.to_arr (Option.get (Mini_json.member "traceEvents" doc)) in
  let phases =
    List.map (fun e -> Mini_json.to_str (Option.get (Mini_json.member "ph" e))) evs
  in
  (* 3 recorded events; thread_name metadata records ride along (one per
     named track — pools elsewhere in the binary may have named more). *)
  check_int "exported non-metadata events" 3
    (List.length (List.filter (fun p -> p <> "M") phases));
  check_bool "has metadata record" true (List.mem "M" phases);
  check_bool "has begin" true (List.mem "B" phases);
  (* Numeric-looking args export as JSON numbers, text as strings. *)
  let find_ev name =
    List.find
      (fun e ->
        match Mini_json.member "name" e with
        | Some (Mini_json.Str s) -> String.equal s name
        | _ -> false)
      evs
  in
  let phase_args = Option.get (Mini_json.member "args" (find_ev "phase")) in
  check_bool "numeric arg" true
    (match Mini_json.member "n" phase_args with
     | Some (Mini_json.Num f) -> f = 3.
     | _ -> false);
  let note_args = Option.get (Mini_json.member "args" (find_ev "note")) in
  check_bool "escaped string arg round-trips" true
    (match Mini_json.member "label" note_args with
     | Some (Mini_json.Str s) -> String.equal s "he said \"hi\""
     | _ -> false)

(* Pool tasks trace onto their worker's track; a nested [Pool.map] runs
   inline in the worker, so its task events nest inside the outer task's
   on the same track. *)
let test_pool_tasks_nested () =
  with_trace @@ fun () ->
  Parallel.Pool.with_pool ~size:2 (fun pool ->
      let out =
        Parallel.Pool.map ~pool
          (fun i ->
            let inner =
              Parallel.Pool.map ~pool (fun j -> (10 * i) + j) [ 1; 2 ]
            in
            List.fold_left ( + ) 0 inner)
          [ 1; 2; 3; 4 ]
      in
      check_bool "results correct" true (out = [ 23; 43; 63; 83 ]));
  let evs = Obs.trace_events () in
  let tasks =
    List.filter (fun (e : Obs.event) -> String.equal e.Obs.ev_name "pool.task") evs
  in
  check_bool "task events recorded" true (List.length tasks >= 8);
  check_bool "worker tracks distinct from main" true
    (List.for_all (fun (e : Obs.event) -> e.Obs.tid <> 0) tasks);
  check_bool "well nested across workers" true (well_nested evs)

(* With only the timeline on, a span still emits its B/E pair with the GC
   deltas, and records no duration.  The words are its domain's own
   allocation, counted even when the span triggers no minor collection. *)
let test_traced_spans_gc_args () =
  with_trace @@ fun () ->
  check_bool "duration channel off" false (Obs.hist_enabled ());
  let h = Obs.histogram "test.traced" in
  Gc.minor ();
  let r = Obs.with_span h (fun () -> List.init 1000 Fun.id |> List.length) in
  check_int "body result" 1000 r;
  check_bool "no duration recorded" true
    (not (List.mem_assoc "test.traced" (Obs.snapshot ()).Obs.hists));
  let evs = Obs.trace_events () in
  match
    List.find_opt
      (fun (e : Obs.event) ->
        e.Obs.ph = 'E' && String.equal e.Obs.ev_name "test.traced")
      evs
  with
  | Some e ->
    (match List.assoc_opt "gc_minor_words" e.Obs.ev_args with
     | Some w ->
       check_bool "a 1,000-cell list is at least 3,000 words" true
         (float_of_string w >= 3000.)
     | None -> Alcotest.fail "no gc_minor_words arg")
  | None -> Alcotest.fail "no end event for traced span"

(* A pool worker's raw [pool.task] event does not hide the spans that its
   task runs: the outermost [with_span] of each domain publishes the
   [gc.*] counters, each with its own domain's words.  The caller's span
   around the map counts only the caller's words, so the counter matches
   the tasks' own allocation, however the domains interleave. *)
let test_pooled_spans_publish_gc () =
  with_trace @@ fun () ->
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let caller = Obs.histogram "test.pooled.caller" in
  let h = Obs.histogram "test.pooled" in
  let own =
    Parallel.Pool.with_pool ~size:2 (fun pool ->
        Obs.with_span caller (fun () ->
            Parallel.Pool.map ~pool
              (fun i ->
                Obs.with_span h (fun () ->
                    let w0 = Gc.minor_words () in
                    ignore (List.length (List.init (200_000 + i) Fun.id));
                    Gc.minor_words () -. w0))
              [ 1; 2; 3; 4 ]))
  in
  let own = List.fold_left ( +. ) 0. own in
  let words =
    Option.value ~default:0
      (List.assoc_opt "gc.minor_words" (Obs.snapshot ()).Obs.counters)
    |> float_of_int
  in
  if Float.abs (words -. own) > 0.05 *. own then
    Alcotest.failf "gc.minor_words %.0f, the tasks' own words %.0f" words own

(* Collections are program-wide: a pooled run inside a caller span
   publishes each one once, from the main domain, not once per domain
   with a span open (which tripled the count on a 2-domain pool). *)
let test_pooled_collections_counted_once () =
  with_trace @@ fun () ->
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let caller = Obs.histogram "test.pooled.caller" in
  let h = Obs.histogram "test.pooled" in
  let expected =
    Parallel.Pool.with_pool ~size:2 (fun pool ->
        let c0 = (Gc.quick_stat ()).Gc.minor_collections in
        Obs.with_span caller (fun () ->
            ignore
              (Parallel.Pool.map ~pool
                 (fun i ->
                   Obs.with_span h (fun () ->
                       List.length (List.init (2_000_000 + i) Fun.id)))
                 [ 1; 2; 3; 4 ]));
        (Gc.quick_stat ()).Gc.minor_collections - c0)
  in
  let published =
    Option.value ~default:0
      (List.assoc_opt "gc.minor_collections" (Obs.snapshot ()).Obs.counters)
  in
  if expected = 0 || abs (published - expected) * 10 > expected then
    Alcotest.failf "gc.minor_collections %d, Gc.quick_stat counted %d"
      published expected

let suite =
  [
    ("basic record + well-nested", `Quick, test_basic_record);
    ("overflow drops, earlier events intact", `Quick, test_overflow_drops);
    ("open span reserves its end slot", `Quick, test_open_span_reservation);
    ("reset clears events and drop counter", `Quick, test_reset_clears);
    ("chrome JSON export parses", `Quick, test_json_export);
    ("pool tasks nest on worker tracks", `Quick, test_pool_tasks_nested);
    ("traced span attaches GC deltas", `Quick, test_traced_spans_gc_args);
    ("pooled spans publish gc counters", `Quick, test_pooled_spans_publish_gc);
    ( "pooled collections counted once",
      `Quick,
      test_pooled_collections_counted_once );
  ]
