(* Propagation.Memo: the striped cross-view table — unit behaviour,
   counters, and the multi-domain stress the fleet driver relies on. *)

open Fixtures
module Memo = Propagation.Memo
module Pool = Parallel.Pool
module C = Cfds.Cfd

let test_find_add_roundtrip () =
  let m = Memo.create () in
  check_bool "miss on empty" true (Memo.find m "cover:x:1" = None);
  Memo.add m "cover:x:1" (Memo.Verdict true);
  (match Memo.find m "cover:x:1" with
   | Some (Memo.Verdict true) -> ()
   | _ -> Alcotest.fail "payload mismatch");
  (* First insert wins. *)
  Memo.add m "cover:x:1" (Memo.Verdict false);
  (match Memo.find m "cover:x:1" with
   | Some (Memo.Verdict true) -> ()
   | _ -> Alcotest.fail "duplicate add overwrote");
  check_int "entries" 1 (Memo.entries m);
  let cover = [ f1; f2 ] in
  Memo.add m "slice:x:R1" (Memo.Cfds cover);
  (match Memo.find m "slice:x:R1" with
   | Some (Memo.Cfds c) ->
     Alcotest.(check (list cfd_testable)) "cfds round-trip" cover c
   | _ -> Alcotest.fail "cfds payload lost");
  check_int "entries grow" 2 (Memo.entries m)

let test_find_or_compute () =
  let m = Memo.create () in
  let computes = ref 0 in
  let f () =
    incr computes;
    Memo.Verdict false
  in
  let p1, hit1 = Memo.find_or_compute m "impl:k" f in
  let p2, hit2 = Memo.find_or_compute m "impl:k" f in
  check_bool "first is miss" false hit1;
  check_bool "second is hit" true hit2;
  check_int "computed once" 1 !computes;
  check_bool "same payload" true (p1 = p2)

let test_counters () =
  let m = Memo.create () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      ignore (Memo.find m "cover:a");
      Memo.add m "cover:a" (Memo.Verdict true);
      ignore (Memo.find m "cover:a");
      Memo.add m "cover:a" (Memo.Verdict true);
      let snap = Obs.snapshot () in
      let get n = List.assoc_opt n snap.Obs.counters in
      Alcotest.(check (option int)) "hits" (Some 1) (get "memo.hits");
      Alcotest.(check (option int)) "misses" (Some 1) (get "memo.misses");
      Alcotest.(check (option int)) "inserts" (Some 1) (get "memo.inserts");
      Alcotest.(check (option int)) "races" (Some 1) (get "memo.races"))

let test_digests () =
  let d1 = Memo.digest_cfds [ f1; f2 ] in
  check_bool "order-sensitive" false
    (String.equal d1 (Memo.digest_cfds [ f2; f1 ]));
  Alcotest.(check string) "deterministic" d1 (Memo.digest_cfds [ f1; f2 ]);
  check_bool "cfd digest distinguishes" false
    (String.equal (Memo.digest_cfd cfd1) (Memo.digest_cfd cfd2))

(* All pool domains hammer one shared key set: no torn reads (every read
   sees a complete payload equal to the key's unique deterministic value),
   duplicate computes bounded by the race window (≤ one per worker), and
   the table converges to exactly one entry per key. *)
let test_stress_hammering () =
  let nkeys = 64 in
  let keys = List.init nkeys (fun i -> Printf.sprintf "impl:stress:%d" i) in
  let expected i = i mod 3 = 0 in
  Pool.with_pool ~size:4 (fun pool ->
      let m = Memo.create () in
      let computes = Array.init nkeys (fun _ -> Atomic.make 0) in
      let worker w =
        let order = if w mod 2 = 0 then keys else List.rev keys in
        List.iteri
          (fun idx key ->
            let i = if w mod 2 = 0 then idx else nkeys - 1 - idx in
            let p, _hit =
              Memo.find_or_compute m key (fun () ->
                  Atomic.incr computes.(i);
                  Memo.Verdict (expected i))
            in
            match p with
            | Memo.Verdict v ->
              if v <> expected i then Alcotest.fail ("torn read on " ^ key)
            | _ -> Alcotest.fail "foreign payload")
          order
      in
      ignore (Pool.map ~pool worker (List.init 8 Fun.id));
      check_int "one entry per key" nkeys (Memo.entries m);
      Array.iteri
        (fun i c ->
          let n = Atomic.get c in
          check_bool
            (Printf.sprintf "key %d computed at least once" i)
            true (n >= 1);
          check_bool
            (Printf.sprintf "key %d computes bounded by race window" i)
            true
            (n <= 8))
        computes;
      (* After the storm every probe is a hit with the settled value. *)
      List.iteri
        (fun i key ->
          match Memo.find m key with
          | Some (Memo.Verdict v) ->
            check_bool "settled value" true (v = expected i)
          | _ -> Alcotest.fail "entry lost")
        keys)

let suite =
  [
    ("find/add round-trip, first wins", `Quick, test_find_add_roundtrip);
    ("find_or_compute computes once", `Quick, test_find_or_compute);
    ("hit/miss/insert/race counters", `Quick, test_counters);
    ("digest helpers", `Quick, test_digests);
    ("multi-domain hammering", `Slow, test_stress_hammering);
  ]
