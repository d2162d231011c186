type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let c_tasks = Obs.counter "pool.tasks"
let c_maps = Obs.counter "pool.maps"
let c_nested = Obs.counter "pool.nested_sequential_maps"

(* Set on pool-worker domains: the worker's busy-time histogram.  Doubles
   as the nested-submission detector — a [map] called from a worker runs
   sequentially in that worker instead of deadlocking the queue. *)
let worker_busy : Obs.histogram option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let in_worker () = Domain.DLS.get worker_busy <> None

let worker pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.closed do
      Condition.wait pool.has_work pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    end
  in
  loop ()

let default_size () = max 1 (Domain.recommended_domain_count () - 1)

let create ?size () =
  let size = match size with Some n -> max 1 n | None -> default_size () in
  let pool =
    {
      size;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  if size > 1 then
    pool.workers <-
      List.init size (fun i ->
          let busy = Obs.histogram (Printf.sprintf "pool.worker%d.busy" i) in
          Domain.spawn (fun () ->
              Domain.DLS.set worker_busy (Some busy);
              Obs.set_track_name (Printf.sprintf "worker%d" i);
              worker pool));
  pool

let size t = t.size

let shutdown t =
  if t.workers <> [] then begin
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let sequential_map f xs = List.map f xs

let map ?pool f xs =
  match pool with
  | None -> sequential_map f xs
  | Some p when p.size <= 1 || p.workers = [] -> sequential_map f xs
  | Some _ when in_worker () ->
    (* Nested submission: this domain IS a worker, so parking it on the
       done-condition could leave the queue with no one to drain it.  Run
       the map inline; the outer task already owns a worker's slot. *)
    Obs.incr c_nested;
    sequential_map f xs
  | Some p ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    if n = 0 then []
    else begin
      Obs.incr c_maps;
      let results = Array.make n None in
      let remaining = Atomic.make n in
      let done_mutex = Mutex.create () in
      let all_done = Condition.create () in
      let submit_ts = if Obs.trace_enabled () then Obs.now () else 0. in
      let run i () =
        let tracing = Obs.trace_enabled () in
        (* Queueing delay: submit → start, on the worker's own track. *)
        if tracing then
          Obs.trace_begin
            ~args:
              [
                ("index", string_of_int i);
                ( "queue_us",
                  Printf.sprintf "%.1f" ((Obs.now () -. submit_ts) *. 1e6) );
              ]
            "pool.task";
        let t0 = if Obs.hist_enabled () then Obs.now () else 0. in
        let r = try Ok (f arr.(i)) with e -> Error e in
        (* Account and merge this domain's observations before the task is
           reported done: a caller snapshotting right after [map] returns
           must see every task's contribution. *)
        if Obs.hist_enabled () then
          Option.iter
            (fun h -> Obs.observe_us h ((Obs.now () -. t0) *. 1e6))
            (Domain.DLS.get worker_busy);
        Obs.incr c_tasks;
        if tracing then Obs.trace_end "pool.task";
        if Obs.enabled () || Obs.hist_enabled () || tracing then
          Obs.flush_domain ();
        results.(i) <- Some r;
        (* The decrement happens-before the broadcast; a waiter holding
           [done_mutex] either observes zero or is woken by it. *)
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock done_mutex;
          Condition.broadcast all_done;
          Mutex.unlock done_mutex
        end
      in
      Mutex.lock p.mutex;
      for i = 0 to n - 1 do
        Queue.push (run i) p.queue
      done;
      Condition.broadcast p.has_work;
      Mutex.unlock p.mutex;
      Mutex.lock done_mutex;
      while Atomic.get remaining > 0 do
        Condition.wait all_done done_mutex
      done;
      Mutex.unlock done_mutex;
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error e) -> raise e
             | None -> assert false)
           results)
    end

let with_pool ?size f =
  let pool = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
