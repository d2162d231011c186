type counter = int
type histogram = int

(* --- metric registries -------------------------------------------------- *)

(* Registration is rare (module initialisation); lookups on the hot path
   carry the dense id only.  One mutex guards both registries. *)
type registry = {
  mutable names : string array;
  mutable n : int;
  index : (string, int) Hashtbl.t;
}

let reg_mutex = Mutex.create ()
let counters_reg = { names = [||]; n = 0; index = Hashtbl.create 64 }
let hists_reg = { names = [||]; n = 0; index = Hashtbl.create 64 }

let register reg name =
  Mutex.lock reg_mutex;
  let id =
    match Hashtbl.find_opt reg.index name with
    | Some id -> id
    | None ->
      let id = reg.n in
      if id >= Array.length reg.names then begin
        let a = Array.make (max 16 (2 * Array.length reg.names)) "" in
        Array.blit reg.names 0 a 0 reg.n;
        reg.names <- a
      end;
      reg.names.(id) <- name;
      reg.n <- id + 1;
      Hashtbl.replace reg.index name id;
      id
  in
  Mutex.unlock reg_mutex;
  id

let registered_names reg =
  Mutex.lock reg_mutex;
  let a = Array.sub reg.names 0 reg.n in
  Mutex.unlock reg_mutex;
  a

let counter name = register counters_reg name
let histogram name = register hists_reg name

(* --- histogram bucket layout --------------------------------------------- *)

(* HdrHistogram-style log-linear layout over integer microseconds: the
   first [hist_subs] buckets are exact (width 1), then every octave is
   split into [hist_subs] equal sub-buckets, so relative error is bounded
   by 1/subs (6.25%) at every scale.  Values at or above 2^26 us (~67 s)
   share one overflow bucket; the recorded maximum stays exact.  The
   layout is a pure function of the index — no per-histogram bounds — so
   shards merge by pointwise addition. *)

let hist_sub_bits = 4
let hist_subs = 1 lsl hist_sub_bits
let hist_max_octave = 25
let hist_buckets = (hist_max_octave - hist_sub_bits + 1) * hist_subs + hist_subs + 1

let bucket_of_us v =
  let v =
    if Float.is_nan v || v < 1. then 0
    else if v >= 1e15 then 1 lsl 50
    else int_of_float v
  in
  if v < hist_subs then v
  else if v lsr (hist_max_octave + 1) > 0 then hist_buckets - 1
  else begin
    (* m = floor(log2 v); v >= hist_subs so m >= hist_sub_bits. *)
    let m = ref hist_sub_bits in
    let x = ref (v lsr (hist_sub_bits + 1)) in
    while !x <> 0 do
      incr m;
      x := !x lsr 1
    done;
    let shift = !m - hist_sub_bits in
    ((shift + 1) * hist_subs) + ((v lsr shift) land (hist_subs - 1))
  end

let bucket_lower_us i =
  if i <= 0 then 0.
  else if i < hist_subs then float_of_int i
  else if i >= hist_buckets - 1 then float_of_int (1 lsl (hist_max_octave + 1))
  else
    let q = i / hist_subs and r = i mod hist_subs in
    float_of_int ((hist_subs + r) lsl (q - 1))

let bucket_upper_us i =
  if i >= hist_buckets - 1 then infinity else bucket_lower_us (i + 1)

(* --- shards ------------------------------------------------------------- *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Durations have their own flag so a bench can collect latency
   percentiles without paying for the counter channel (and vice versa).
   The disabled cost is the same contract: one atomic load. *)
let hist_flag = Atomic.make false
let hist_enabled () = Atomic.get hist_flag

(* One shard holds both channels, indexed by metric id: counter values,
   and per histogram its count, exact sum and max, and bucket array
   (allocated on first observation).  Every domain writes its own shard
   unsynchronised; the global sink is one more shard, guarded by
   [sink_mutex], into which the domain shards are merged at flush
   points. *)
type shard = {
  mutable counts : int array;
  mutable hn : int array;
  mutable hsum : float array;
  mutable hmax : float array;
  mutable hbuckets : int array array;
  mutable dirty : bool;
}

let new_shard () =
  { counts = [||]; hn = [||]; hsum = [||]; hmax = [||]; hbuckets = [||]; dirty = false }

let sink_mutex = Mutex.create ()
let sink = new_shard ()

let grow a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (max 16 (2 * Array.length a))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Every domain's shard, registered at creation and guarded by
   [sink_mutex].  [snapshot] merges these live shards on top of the sink,
   so a reader in one domain (the Prometheus responder, a stats op) sees
   what other domains have recorded without requiring them to hit a flush
   point first.  Shards of finished domains stay registered; they are
   empty once the domain's final flush has run, so merging them is a
   no-op. *)
let all_shards : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let b = new_shard () in
      Mutex.lock sink_mutex;
      all_shards := b :: !all_shards;
      Mutex.unlock sink_mutex;
      b)

let add c n =
  if n <> 0 && Atomic.get enabled_flag then begin
    let b = Domain.DLS.get shard_key in
    if Array.length b.counts <= c then b.counts <- grow b.counts (c + 1) 0;
    b.counts.(c) <- b.counts.(c) + n;
    b.dirty <- true
  end

let incr c = add c 1

let observe_us h v =
  if Atomic.get hist_flag then begin
    let b = Domain.DLS.get shard_key in
    if Array.length b.hn <= h then begin
      b.hn <- grow b.hn (h + 1) 0;
      b.hsum <- grow b.hsum (h + 1) 0.;
      b.hmax <- grow b.hmax (h + 1) 0.;
      b.hbuckets <- grow b.hbuckets (h + 1) [||]
    end;
    if Array.length b.hbuckets.(h) = 0 then
      b.hbuckets.(h) <- Array.make hist_buckets 0;
    let bk = bucket_of_us v in
    b.hbuckets.(h).(bk) <- b.hbuckets.(h).(bk) + 1;
    b.hn.(h) <- b.hn.(h) + 1;
    b.hsum.(h) <- b.hsum.(h) +. v;
    if v > b.hmax.(h) then b.hmax.(h) <- v;
    b.dirty <- true
  end

(* [accumulate dst src] adds [src] into [dst]: counts and sums add,
   maxima take the max, buckets add pointwise.  [src] may be another
   domain's live shard, whose owner grows its co-indexed arrays one after
   the other; a racing read can see them momentarily unequal, so iterate
   to the shortest (the tail is unobserved-yet data anyway). *)
let accumulate dst src =
  let nc = Array.length src.counts in
  dst.counts <- grow dst.counts nc 0;
  for i = 0 to nc - 1 do
    if src.counts.(i) <> 0 then dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  let nh =
    min
      (min (Array.length src.hn) (Array.length src.hsum))
      (min (Array.length src.hmax) (Array.length src.hbuckets))
  in
  dst.hn <- grow dst.hn nh 0;
  dst.hsum <- grow dst.hsum nh 0.;
  dst.hmax <- grow dst.hmax nh 0.;
  dst.hbuckets <- grow dst.hbuckets nh [||];
  for i = 0 to nh - 1 do
    if src.hn.(i) > 0 then begin
      dst.hn.(i) <- dst.hn.(i) + src.hn.(i);
      dst.hsum.(i) <- dst.hsum.(i) +. src.hsum.(i);
      if src.hmax.(i) > dst.hmax.(i) then dst.hmax.(i) <- src.hmax.(i);
      let s = src.hbuckets.(i) in
      if Array.length s > 0 then begin
        if Array.length dst.hbuckets.(i) = 0 then
          dst.hbuckets.(i) <- Array.make hist_buckets 0;
        let d = dst.hbuckets.(i) in
        for k = 0 to hist_buckets - 1 do
          if s.(k) <> 0 then d.(k) <- d.(k) + s.(k)
        done
      end
    end
  done

let clear_counts s = Array.fill s.counts 0 (Array.length s.counts) 0

let clear_hists s =
  Array.fill s.hn 0 (Array.length s.hn) 0;
  Array.fill s.hsum 0 (Array.length s.hsum) 0.;
  Array.fill s.hmax 0 (Array.length s.hmax) 0.;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) s.hbuckets

(* CLOCK_MONOTONIC nanoseconds via the C stub (obs_clock.c): NTP steps
   can drag [gettimeofday] backwards, producing negative span durations
   and non-monotone trace timestamps.  The native call is [@@noalloc]
   with an unboxed return, so timing itself never touches the heap. *)
external monotonic_ns : unit -> (int64[@unboxed])
  = "obs_monotonic_ns_bytecode" "obs_monotonic_ns_native"
[@@noalloc]

let now () = Int64.to_float (monotonic_ns ()) *. 1e-9

(* [Gc.minor_words] is a [@@noalloc] external reading the allocation
   pointer, so the measurement itself stays off the heap; the subtraction
   captures everything [f] put on the minor heap (promoted or not). *)
let minor_allocated f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* --- trace-event timeline ------------------------------------------------ *)

(* Chrome trace-event recorder (loadable in Perfetto / chrome://tracing).
   Same discipline as the shards: a per-domain ring buffer takes
   unsynchronised writes and drains into the global sink at the existing
   flush points (snapshot, pool task end).  The ring has a fixed capacity
   and *drops* on overflow (counted) instead of overwriting — and it always
   reserves one slot per open 'B' event, so a recorded begin can never lose
   its matching end to a full buffer. *)

type event = {
  ev_name : string;
  ph : char; (* 'B' begin | 'E' end | 'i' instant *)
  ts_us : float; (* microseconds since [trace_origin] *)
  tid : int; (* per-domain track id *)
  ev_args : (string * string) list; (* values auto-typed at export *)
}

let trace_flag = Atomic.make false
let trace_enabled () = Atomic.get trace_flag
let trace_origin = now ()

(* The monotonic origin means trace timestamps carry no calendar
   information; this epoch anchor (captured at the same instant) is
   exported in [otherData] so traces from different runs can still be
   aligned on wall-clock time. *)
let trace_origin_unix_s = Unix.gettimeofday ()
let ts_now () = (now () -. trace_origin) *. 1e6
let default_trace_capacity = 1 lsl 16
let trace_capacity = ref default_trace_capacity

let set_trace_capacity n =
  if n < 8 then invalid_arg "Obs.set_trace_capacity: capacity < 8";
  trace_capacity := n

let no_event = { ev_name = ""; ph = 'i'; ts_us = 0.; tid = 0; ev_args = [] }

type tbuf = {
  mutable ring : event array; (* allocated lazily at [!trace_capacity] *)
  mutable tlen : int;
  mutable open_spans : int; (* recorded 'B's awaiting their 'E' *)
  mutable span_stack : bool list; (* per open span: was its 'B' recorded? *)
  mutable span_depth : int; (* open [with_span] calls *)
  mutable tdropped : int;
  mutable tid : int; (* dense track id, assigned on first use *)
}

let next_tid = Atomic.make 0

(* tid -> display name, under [sink_mutex]. *)
let track_names : (int, string) Hashtbl.t = Hashtbl.create 8

let tbuf_key =
  Domain.DLS.new_key (fun () ->
      {
        ring = [||];
        tlen = 0;
        open_spans = 0;
        span_stack = [];
        span_depth = 0;
        tdropped = 0;
        tid = -1;
      })

let tbuf_tid b =
  if b.tid < 0 then b.tid <- Atomic.fetch_and_add next_tid 1;
  b.tid

let set_track_name name =
  let b = Domain.DLS.get tbuf_key in
  let tid = tbuf_tid b in
  Mutex.lock sink_mutex;
  Hashtbl.replace track_names tid name;
  Mutex.unlock sink_mutex

(* The main domain initialises this module, so it gets track 0. *)
let () = set_track_name "main"

let tbuf_ring b =
  if b.tlen = 0 && Array.length b.ring <> !trace_capacity then
    b.ring <- Array.make !trace_capacity no_event;
  b.ring

let push_event b ev =
  let ring = tbuf_ring b in
  ring.(b.tlen) <- ev;
  b.tlen <- b.tlen + 1

(* Global sink for flushed events: batches in arrival order.  Within one
   track the order is chronological (each domain flushes its ring in record
   order, and flushes from one domain are serialised). *)
let g_events : event list ref = ref [] (* reversed *)
let g_tdropped = ref 0

let flush_trace_domain () =
  let b = Domain.DLS.get tbuf_key in
  if b.tlen > 0 || b.tdropped > 0 then begin
    Mutex.lock sink_mutex;
    for i = 0 to b.tlen - 1 do
      g_events := b.ring.(i) :: !g_events
    done;
    g_tdropped := !g_tdropped + b.tdropped;
    Mutex.unlock sink_mutex;
    b.tlen <- 0;
    b.tdropped <- 0
  end

let trace_begin ?(args = []) name =
  if Atomic.get trace_flag then begin
    let b = Domain.DLS.get tbuf_key in
    let ring = tbuf_ring b in
    (* Reserve a slot for this span's 'E' and one for every pending 'E'. *)
    let room = b.tlen + b.open_spans + 2 <= Array.length ring in
    if room then begin
      push_event b
        {
          ev_name = name;
          ph = 'B';
          ts_us = ts_now ();
          tid = tbuf_tid b;
          ev_args = args;
        };
      b.open_spans <- b.open_spans + 1
    end
    else b.tdropped <- b.tdropped + 1;
    b.span_stack <- room :: b.span_stack
  end

let trace_end ?(args = []) name =
  if Atomic.get trace_flag then begin
    let b = Domain.DLS.get tbuf_key in
    match b.span_stack with
    | [] -> () (* unbalanced: ignore *)
    | recorded :: rest ->
      b.span_stack <- rest;
      if recorded then begin
        (* Room is guaranteed: [trace_begin] reserved this slot. *)
        push_event b
          {
            ev_name = name;
            ph = 'E';
            ts_us = ts_now ();
            tid = tbuf_tid b;
            ev_args = args;
          };
        b.open_spans <- b.open_spans - 1
      end
      else b.tdropped <- b.tdropped + 1
  end

let trace_instant ?(args = []) name =
  if Atomic.get trace_flag then begin
    let b = Domain.DLS.get tbuf_key in
    let ring = tbuf_ring b in
    if b.tlen + b.open_spans + 1 <= Array.length ring then
      push_event b
        {
          ev_name = name;
          ph = 'i';
          ts_us = ts_now ();
          tid = tbuf_tid b;
          ev_args = args;
        }
    else b.tdropped <- b.tdropped + 1
  end

(* --- spans ---------------------------------------------------------------- *)

(* Per-phase GC accounting: the outermost traced span on each domain also
   publishes the deltas as counters (children are included in the parent,
   so only depth 0 counts — no double counting).  Depth counts open
   [with_span] calls only: raw [trace_begin] events, such as a pool
   worker's [pool.task], do not hide the spans inside them.  Word counts
   are per domain, so every domain publishes its own; collections are
   program-wide, so only the main domain publishes them, or a pooled run
   would count each collection once per domain with an open span. *)
let c_gc_minor_words = counter "gc.minor_words"
let c_gc_major_words = counter "gc.major_words"
let c_gc_minor_collections = counter "gc.minor_collections"
let c_gc_major_collections = counter "gc.major_collections"

let hist_name h =
  Mutex.lock reg_mutex;
  let n = if h < hists_reg.n then hists_reg.names.(h) else "?" in
  Mutex.unlock reg_mutex;
  n

let timed h f =
  if not (Atomic.get hist_flag) then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> observe_us h ((now () -. t0) *. 1e6)) f
  end

(* A span is the histogram of its durations, plus — while the timeline
   records — a B/E event pair carrying the span's GC deltas.  The word
   counts are the calling domain's own: [Gc.minor_words] is exact and does
   not allocate, and [Gc.counters] is per domain too, whereas
   [Gc.quick_stat] sums every domain and counts minor words only at minor
   collections.  Collections are program-wide events, so their counts
   still come from [Gc.quick_stat], and the main domain publishes them. *)
let with_span h f =
  if not (Atomic.get trace_flag) then timed h f
  else begin
    let name = hist_name h in
    let b = Domain.DLS.get tbuf_key in
    let outermost = b.span_depth = 0 in
    b.span_depth <- b.span_depth + 1;
    let g0 = Gc.quick_stat () in
    let _, _, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    trace_begin name;
    Fun.protect
      ~finally:(fun () ->
        b.span_depth <- b.span_depth - 1;
        let minor_w = Gc.minor_words () -. minor0 in
        let _, _, major1 = Gc.counters () in
        let major_w = major1 -. major0 in
        let g1 = Gc.quick_stat () in
        let minor_c = g1.Gc.minor_collections - g0.Gc.minor_collections in
        let major_c = g1.Gc.major_collections - g0.Gc.major_collections in
        if outermost then begin
          add c_gc_minor_words (int_of_float minor_w);
          add c_gc_major_words (int_of_float major_w);
          if Domain.is_main_domain () then begin
            add c_gc_minor_collections minor_c;
            add c_gc_major_collections major_c
          end
        end;
        trace_end
          ~args:
            [
              ("gc_minor_words", Printf.sprintf "%.0f" minor_w);
              ("gc_major_words", Printf.sprintf "%.0f" major_w);
              ("gc_minor_collections", string_of_int minor_c);
              ("gc_major_collections", string_of_int major_c);
            ]
          name)
      (fun () -> timed h f)
  end

(* --- channel switches and flushing ------------------------------------- *)

let trace_reset () =
  let b = Domain.DLS.get tbuf_key in
  b.tlen <- 0;
  b.tdropped <- 0;
  b.open_spans <- 0;
  b.span_stack <- [];
  Mutex.lock sink_mutex;
  g_events := [];
  g_tdropped := 0;
  Mutex.unlock sink_mutex

let set_trace_enabled on =
  if on then trace_reset ();
  Atomic.set trace_flag on

let trace_dropped () =
  let b = Domain.DLS.get tbuf_key in
  Mutex.lock sink_mutex;
  let d = !g_tdropped in
  Mutex.unlock sink_mutex;
  d + b.tdropped

let trace_events () =
  flush_trace_domain ();
  Mutex.lock sink_mutex;
  let evs = List.rev !g_events in
  Mutex.unlock sink_mutex;
  (* A stable sort by track keeps each track's record order, which is
     chronological: each domain records and flushes only its own ring, and
     the clock is monotonic. *)
  List.stable_sort (fun (a : event) (b : event) -> Int.compare a.tid b.tid) evs

let trace_track_names () =
  Mutex.lock sink_mutex;
  let l = Hashtbl.fold (fun tid name acc -> (tid, name) :: acc) track_names [] in
  Mutex.unlock sink_mutex;
  List.sort compare l

(* The shard is zeroed *inside* the sink lock: [snapshot] sums the sink
   plus every live shard under the same lock, so add-then-zero must be
   atomic with respect to it or a concurrent snapshot could count the
   flushed values twice (sink updated, shard not yet cleared). *)
let flush_domain () =
  flush_trace_domain ();
  let b = Domain.DLS.get shard_key in
  if b.dirty then begin
    Mutex.lock sink_mutex;
    accumulate sink b;
    clear_counts b;
    clear_hists b;
    b.dirty <- false;
    Mutex.unlock sink_mutex
  end

(* Resets clear every registered shard, not just the calling domain's:
   [snapshot] merges live shards, so data left in another domain's shard
   would survive the reset and reappear in the next snapshot.  Racing
   increments on other domains can straddle the reset either way; resets
   are only meaningful at quiescent points. *)
let clear_all clear =
  Mutex.lock sink_mutex;
  List.iter clear (sink :: !all_shards);
  Mutex.unlock sink_mutex

(* Every channel: a reset between bench points makes every per-point
   snapshot (and trace file) self-contained. *)
let reset () =
  clear_all (fun s ->
      clear_counts s;
      clear_hists s);
  trace_reset ()

let set_enabled on =
  if on then clear_all clear_counts;
  Atomic.set enabled_flag on

let set_hist_enabled on =
  if on then clear_all clear_hists;
  Atomic.set hist_flag on

(* --- snapshots and export ----------------------------------------------- *)

type hist = {
  h_count : int;
  h_sum_us : float;
  h_max_us : float;
  h_buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  spans : (string * (int * float)) list;
  hists : (string * hist) list;
}

let by_name (a, _) (b, _) = String.compare a b

(* [spans] is derived, never stored: each histogram's count and total
   seconds. *)
let of_parts counters hists =
  {
    counters;
    spans = List.map (fun (n, h) -> (n, (h.h_count, h.h_sum_us *. 1e-6))) hists;
    hists;
  }

let empty_snapshot = of_parts [] []

(* Smallest bucket whose cumulative count reaches rank [ceil (q*n)] —
   exactly the bucket holding the rank-based quantile of the observed
   values (bucketing is monotone in the value), reported as the largest
   integer value the bucket can hold, clamped to the recorded maximum. *)
let hist_quantile h q =
  if h.h_count = 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
    let rec go acc = function
      | [] -> h.h_max_us
      | (b, c) :: rest ->
        let acc = acc + c in
        if acc >= rank then Float.min (bucket_upper_us b -. 1.) h.h_max_us
        else go acc rest
    in
    go 0 h.h_buckets
  end

let hist_merge a b =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a.h_buckets;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some w -> Hashtbl.replace tbl k (w + v)
      | None -> Hashtbl.replace tbl k v)
    b.h_buckets;
  {
    h_count = a.h_count + b.h_count;
    h_sum_us = a.h_sum_us +. b.h_sum_us;
    h_max_us = Float.max a.h_max_us b.h_max_us;
    h_buckets =
      List.sort
        (fun (x, _) (y, _) -> Int.compare x y)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
  }

(* A snapshot is the sink plus every live domain's unflushed shard: the
   serving domain records between flush points, and a reader in another
   domain (the Prometheus responder, the stats/metrics protocol ops) must
   see that data without the owner reaching a flush point first.  Shard
   reads race the owner's unsynchronised increments — word-sized loads
   never tear, so at worst an in-flight increment is missed and picked up
   by the next snapshot; flush itself holds [sink_mutex] for its whole
   add-then-zero, so a value is never counted both in the sink and in a
   shard. *)
let snapshot () =
  flush_domain ();
  let acc = new_shard () in
  Mutex.lock sink_mutex;
  List.iter (accumulate acc) (sink :: !all_shards);
  Mutex.unlock sink_mutex;
  let collect reg n f =
    let names = registered_names reg in
    let out = ref [] in
    for i = min n (Array.length names) - 1 downto 0 do
      match f i with Some v -> out := (names.(i), v) :: !out | None -> ()
    done;
    List.sort by_name !out
  in
  let counters =
    collect counters_reg (Array.length acc.counts) (fun i ->
        if acc.counts.(i) <> 0 then Some acc.counts.(i) else None)
  in
  let hists =
    collect hists_reg (Array.length acc.hn) (fun i ->
        if acc.hn.(i) = 0 then None
        else begin
          let buckets = ref [] in
          let a = acc.hbuckets.(i) in
          for k = Array.length a - 1 downto 0 do
            if a.(k) <> 0 then buckets := (k, a.(k)) :: !buckets
          done;
          Some
            {
              h_count = acc.hn.(i);
              h_sum_us = acc.hsum.(i);
              h_max_us = acc.hmax.(i);
              h_buckets = !buckets;
            }
        end)
  in
  of_parts counters hists

let merge a b =
  let merge_assoc combine xs ys =
    let tbl = Hashtbl.create 32 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) xs;
    List.iter
      (fun (k, v) ->
        match Hashtbl.find_opt tbl k with
        | Some w -> Hashtbl.replace tbl k (combine w v)
        | None -> Hashtbl.replace tbl k v)
      ys;
    List.sort by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  of_parts
    (merge_assoc ( + ) a.counters b.counters)
    (merge_assoc hist_merge a.hists b.hists)

let pp ppf s =
  if s.counters = [] && s.hists = [] then
    Format.fprintf ppf "(no observations recorded)@."
  else begin
    if s.counters <> [] then begin
      Format.fprintf ppf "%-44s %14s@." "counter" "value";
      List.iter
        (fun (name, v) -> Format.fprintf ppf "%-44s %14d@." name v)
        s.counters
    end;
    if s.hists <> [] then begin
      if s.counters <> [] then Format.fprintf ppf "@.";
      Format.fprintf ppf "%-44s %8s %12s %9s %9s %9s %9s@." "histogram" "count"
        "sum_us" "p50_us" "p90_us" "p99_us" "max_us";
      List.iter
        (fun (name, h) ->
          Format.fprintf ppf "%-44s %8d %12.0f %9.0f %9.0f %9.0f %9.0f@." name
            h.h_count h.h_sum_us (hist_quantile h 0.5) (hist_quantile h 0.9)
            (hist_quantile h 0.99) h.h_max_us)
        s.hists
    end
  end

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json s =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" (json_escape name) v))
    s.counters;
  Buffer.add_string b "}, \"hists\": {";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "\"%s\": {\"count\": %d, \"sum_us\": %.3f, \"max_us\": %.3f, \
            \"p50_us\": %.3f, \"p90_us\": %.3f, \"p99_us\": %.3f, \
            \"buckets\": ["
           (json_escape name) h.h_count h.h_sum_us h.h_max_us
           (hist_quantile h 0.5) (hist_quantile h 0.9) (hist_quantile h 0.99));
      List.iteri
        (fun j (bk, c) ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Printf.sprintf "[%d, %d]" bk c))
        h.h_buckets;
      Buffer.add_string b "]}")
    s.hists;
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- trace export -------------------------------------------------------- *)

(* Argument values that parse as numbers are emitted as JSON numbers, the
   rest as strings. *)
let arg_value v =
  match float_of_string_opt v with
  | Some _ -> v
  | None -> Printf.sprintf "\"%s\"" (json_escape v)

let add_args b = function
  | [] -> ()
  | args ->
    Buffer.add_string b ", \"args\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b
          (Printf.sprintf "\"%s\": %s" (json_escape k) (arg_value v)))
      args;
    Buffer.add_char b '}'

let trace_to_json ?events () =
  let events = match events with Some e -> e | None -> trace_events () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",";
    Buffer.add_string b "\n  "
  in
  (* Track-name metadata events first (ts 0, ignored by the timeline). *)
  List.iter
    (fun (tid, name) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": \
            %d, \"args\": {\"name\": \"%s\"}}"
           tid (json_escape name)))
    (trace_track_names ());
  List.iter
    (fun ev ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\": \"%s\", \"ph\": \"%c\", \"ts\": %.3f, \"pid\": 0, \
            \"tid\": %d"
           (json_escape ev.ev_name) ev.ph ev.ts_us ev.tid);
      add_args b ev.ev_args;
      Buffer.add_char b '}')
    events;
  Buffer.add_string b
    (Printf.sprintf
       "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": \
        %d, \"trace_origin_unix_s\": %.6f}}\n"
       (trace_dropped ()) trace_origin_unix_s);
  Buffer.contents b

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (trace_to_json ()))
