open Relational
module C = Cfds.Cfd
module P = Cfds.Pattern

(* Observability.  The chase is the engine's innermost hot loop, so it
   tallies into plain arena fields and publishes once per [chase] call —
   the disabled-sink cost is one branch at the end, not one per rule. *)
let c_compiles = Obs.counter "fast_impl.compiles"
let c_chases = Obs.counter "fast_impl.chases"
let c_rounds = Obs.counter "fast_impl.chase_rounds"
let c_rule_apps = Obs.counter "fast_impl.rule_applications"
let c_firings = Obs.counter "fast_impl.rule_firings"
let c_mask_skips = Obs.counter "fast_impl.mask_prune_skips"
let c_retired_skips = Obs.counter "fast_impl.retired_skips"
let c_rule_wakes = Obs.counter "fast_impl.rule_wakes"
let c_goal_stops = Obs.counter "fast_impl.goal_stops"
let c_arena_resets = Obs.counter "fast_impl.arena_resets"
let c_wide_compiles = Obs.counter "fast_impl.wide_compiles"

exception Conflict

(* --- packed-bitset layout ------------------------------------------------ *)

(* Positions are packed 32 to a word so the bit address is a shift/mask
   pair; [words] per-rule words cover any arity, which kills the old
   int-bitmask cliff (arity > [Sys.int_size - 2] used to zero the masks
   and silently disable pruning). *)
let word_shift = 5
let word_mask = 31
let words_for arity = max 1 ((arity + word_mask) lsr word_shift)

(* Physically-unique wildcard sentinel in the flat pattern rows: real
   workload values are never [==] to it, so the premise scan tests one
   pointer comparison instead of matching an option. *)
let wild_v : Value.t = Value.str "\000fast_impl.wild"

let pat_value = function
  | P.Wild -> wild_v
  | P.Const v -> v
  | P.Svar -> invalid_arg "Fast_impl: loose Svar pattern"

(* Per-compiled chase arena: every scratch buffer the chase needs, sized
   once at compile time and reset in O(arity) per query, so the
   steady-state inner loop allocates nothing on the minor heap.  A
   [compiled] value is confined to one domain at a time (the partitioned
   prune compiles per chunk on the worker), so the arena needs no
   synchronisation.

   One row of cells holds the query's pair tableau (t1, t2).  Its seeds,
   rules and unions treat both rows alike, so the tableau is symmetric and
   a union-find over positions, whose classes carry a constant and an
   [agree] flag ("the two rows' cells of this class are one class"),
   represents it exactly (DESIGN §6.2). *)
type arena = {
  (* Union-find over positions: path-halving [parent]; per root, a
     presence byte for the constant, the constant itself and the [agree]
     byte, so resets never touch the value array. *)
  parent : int array;
  bound : Bytes.t;
  agree : Bytes.t;
  cls_val : Value.t array;
  (* Class membership as intrusive linked lists: root [r]'s list starts at
     position [r] itself (unions keep the smaller root, and both lists
     start at their roots), runs through [memb_next] (-1 terminated) and
     ends at [memb_tail.(r)].  Only roots' tails are maintained. *)
  memb_next : int array;
  memb_tail : int array;
  (* Per position, kept up to date by [mark_class]: E ([eq]), the pair's
     two cells are equal (the class agrees or is bound); B ([bnd]), the
     class is bound, to [pos_val].  Packed bitsets, monotone within one
     chase: the premise pre-filter's right-hand sides. *)
  eq : int array;
  bnd : int array;
  pos_val : Value.t array;
  (* Dirty-position worklist: a ring over positions, each queued at most
     once (the [dirty] byte dedups), so [queue] never overflows. *)
  dirty : Bytes.t;
  queue : int array;
  mutable qhead : int;
  mutable qtail : int;
  (* A pair query reads both rows; an attr-eq query reads one tuple, so
     its state never agrees and wildcard-RHS rules are inert. *)
  mutable pair : bool;
  (* Positional scratch for the query's LHS ([implies] setup); grown on
     demand for pathological queries with repeated attributes. *)
  mutable q_pos : int array;
  mutable q_val : Value.t array;
  (* Chase tallies, published to the sink once per chase. *)
  mutable t_rounds : int;
  mutable t_apps : int;
  mutable t_firings : int;
  mutable t_skips : int;
  mutable t_retired : int;
  mutable t_wakes : int;
  mutable t_goal_stops : int;
}

let arena_create arity words =
  let n = max 1 arity in
  {
    parent = Array.init n (fun i -> i);
    bound = Bytes.make n '\000';
    agree = Bytes.make n '\000';
    cls_val = Array.make n wild_v;
    memb_next = Array.make n (-1);
    memb_tail = Array.init n (fun i -> i);
    eq = Array.make words 0;
    bnd = Array.make words 0;
    pos_val = Array.make n wild_v;
    dirty = Bytes.make n '\000';
    queue = Array.make (arity + 1) 0;
    qhead = 0;
    qtail = 0;
    pair = true;
    q_pos = Array.make n 0;
    q_val = Array.make n wild_v;
    t_rounds = 0;
    t_apps = 0;
    t_firings = 0;
    t_skips = 0;
    t_retired = 0;
    t_wakes = 0;
    t_goal_stops = 0;
  }

(* The compiled rule set, struct-of-arrays.  [kind] is 'a' (attr-eq),
   'w' (standard, wildcard RHS) or 'c' (standard, constant RHS); rule
   [i]'s premise occupies [lhs_pos]/[lhs_val] slots
   [lhs_off.(i) .. lhs_off.(i) + lhs_len.(i) - 1] ([slot_rule] maps a slot
   back to its rule), and its premise bitmasks occupy [masks] slots
   [2*words*i ..]: [words] pair-mask words (every LHS position), then
   [words] self-mask words (the constant ones).  The semi-naive watcher
   index of witness chases is in CSR form: position [p]'s watching rules
   are [watch.(watch_off.(p) .. watch_off.(p+1) - 1)], every standard
   rule in rule order.  Goal chases watch keyless rules through the
   slot-linked keyless lists instead, and keyed ones through the live
   lists.

   Constant-keyed wake-up: a standard rule whose LHS has a constant entry
   is keyed on the first one, and the key index (CSR again) lists the rules
   keyed at position [p] with their key constants in
   [key_rule]/[key_val] slots [key_off.(p) .. key_off.(p+1) - 1].  Its
   premise cannot hold before position [p] is bound to the key constant,
   so a goal chase ignores the rule until then, and then links its slots
   into the chase's per-position live lists. *)
type compiled = {
  (* Position resolver for AST-level queries ([implies] on a [Cfds.Cfd.t]);
     IR-compiled rule sets resolve positions through their {!Ir.space}
     instead and never call it. *)
  pos_of_name : string -> int;
  arity : int;
  words : int;
  nrules : int;
  kind : Bytes.t;
  lhs_off : int array;
  lhs_len : int array;
  rhs_pos : int array;
  rhs_val : Value.t array;
  lhs_pos : int array;
  lhs_val : Value.t array;
  slot_rule : int array;
  masks : int array;
  watch_off : int array;
  watch : int array;
  key_off : int array;
  key_rule : int array;
  key_val : Value.t array;
  (* Per-chase stamps, compared against the chase's generation [gen]: a
     keyed rule is awake in the chase whose stamp it carries (keyless
     rules carry [max_int] and are never woken by a key), and a rule is
     retired once its premise has held.  The live lists are slot-linked
     ([live_next] per slot, [live_head] per position) and a position's
     head counts only in the generation of its [live_gen] stamp, so they
     reset without a pass. *)
  awake : int array;
  retired : int array;
  live_gen : int array;
  live_head : int array;
  live_next : int array;
  mutable gen : int;
  (* The keyless lists, slot-linked like the live lists but for good: the
     slots of every rule with no key, linked at compile time or when
     {!set_rule_ir} drops a rule's key. *)
  keyless_head : int array;
  keyless_next : int array;
  (* Rules that can fire on a pristine union-find: Attr_eq, empty-LHS and
     all-wildcard-LHS rules.  Mutable: {!set_rule_ir} can only add entries
     (LHS shrinking may make a rule autonomous, never the reverse). *)
  mutable autonomous : int list;
  arena : arena;
}

(* --- arena primitives ---------------------------------------------------- *)

let arena_reset st n =
  if Obs.enabled () then Obs.incr c_arena_resets;
  for i = 0 to n - 1 do
    Array.unsafe_set st.parent i i;
    Array.unsafe_set st.memb_next i (-1);
    Array.unsafe_set st.memb_tail i i
  done;
  Bytes.fill st.bound 0 n '\000';
  Bytes.fill st.agree 0 n '\000';
  (* A goal-stopped or conflicted chase leaves queued entries; clear
     unconditionally. *)
  Bytes.fill st.dirty 0 (Bytes.length st.dirty) '\000';
  Array.fill st.eq 0 (Array.length st.eq) 0;
  Array.fill st.bnd 0 (Array.length st.bnd) 0;
  st.qhead <- 0;
  st.qtail <- 0

let rec find (parent : int array) i =
  let p = Array.unsafe_get parent i in
  if p = i then i
  else begin
    let gp = Array.unsafe_get parent p in
    if gp = p then p
    else begin
      Array.unsafe_set parent i gp;
      find parent gp
    end
  end

let is_set b i = Bytes.unsafe_get b i <> '\000'

let bit_set (bits : int array) p =
  let w = p lsr word_shift in
  Array.unsafe_set bits w (Array.unsafe_get bits w lor (1 lsl (p land word_mask)))

let bit_mem (bits : int array) p =
  Array.unsafe_get bits (p lsr word_shift) land (1 lsl (p land word_mask)) <> 0

let enqueue st p =
  if Bytes.unsafe_get st.dirty p = '\000' then begin
    Bytes.unsafe_set st.dirty p '\001';
    Array.unsafe_set st.queue st.qtail p;
    let t = st.qtail + 1 in
    st.qtail <- (if t = Array.length st.queue then 0 else t)
  end

(* Root [r]'s class changed: bring its positions' E and B bits up to date
   and queue them, in member-list order.  That is the order in which a
   two-row union-find, keeping the smaller root too, would first reach the
   class's positions, so witness chases apply rules in the order the pair
   tableau defines (DESIGN §6.2). *)
let mark_class st r =
  let e = is_set st.agree r || is_set st.bound r in
  let b = is_set st.bound r in
  let v = Array.unsafe_get st.cls_val r in
  let c = ref r in
  while !c >= 0 do
    let p = !c in
    if e then bit_set st.eq p;
    if b then begin
      bit_set st.bnd p;
      Array.unsafe_set st.pos_val p v
    end;
    enqueue st p;
    c := Array.unsafe_get st.memb_next p
  done

(* Chase-time changes: each returns whether the state changed, tallies a
   firing and marks the changed class.  A class that gains the [agree]
   flag while bound changes no E bit, and a union of two classes bound to
   the same constant changes no bit at all: neither marks anything. *)
let bind st p v =
  let r = find st.parent p in
  if is_set st.bound r then
    if Value.equal (Array.unsafe_get st.cls_val r) v then false
    else raise Conflict
  else begin
    Bytes.unsafe_set st.bound r '\001';
    Array.unsafe_set st.cls_val r v;
    st.t_firings <- st.t_firings + 1;
    mark_class st r;
    true
  end

let agree st p =
  let r = find st.parent p in
  if is_set st.agree r then false
  else begin
    Bytes.unsafe_set st.agree r '\001';
    st.t_firings <- st.t_firings + 1;
    if not (is_set st.bound r) then mark_class st r;
    true
  end

let union st a b =
  let ra = find st.parent a and rb = find st.parent b in
  if ra = rb then false
  else begin
    let both_bound = is_set st.bound ra && is_set st.bound rb in
    if
      both_bound
      && not (Value.equal (Array.unsafe_get st.cls_val ra) (Array.unsafe_get st.cls_val rb))
    then raise Conflict;
    let keep = if ra < rb then ra else rb in
    let drop = if ra < rb then rb else ra in
    Array.unsafe_set st.parent drop keep;
    if (not (is_set st.bound keep)) && is_set st.bound drop then begin
      Bytes.unsafe_set st.bound keep '\001';
      Array.unsafe_set st.cls_val keep (Array.unsafe_get st.cls_val drop)
    end;
    if is_set st.agree drop then Bytes.unsafe_set st.agree keep '\001';
    (* Append [drop]'s member list (head = drop) after [keep]'s tail. *)
    Array.unsafe_set st.memb_next (Array.unsafe_get st.memb_tail keep) drop;
    Array.unsafe_set st.memb_tail keep (Array.unsafe_get st.memb_tail drop);
    st.t_firings <- st.t_firings + 1;
    if not both_bound then mark_class st keep;
    true
  end

(* The query's goal: for a pair query, the two rows agree on [ga] and, for
   a constant [gv], [ga] is bound to it; for an attr-eq query, the tuple's
   cells [ga] and [gb] are equal (one class, or bound to one constant). *)
let goal_holds st ga gb gv =
  if st.pair then
    if gv == wild_v then bit_mem st.eq ga
    else bit_mem st.bnd ga && Value.equal (Array.unsafe_get st.pos_val ga) gv
  else
    let ra = find st.parent ga and rb = find st.parent gb in
    ra = rb
    || is_set st.bound ra
       && is_set st.bound rb
       && Value.equal (Array.unsafe_get st.cls_val ra) (Array.unsafe_get st.cls_val rb)

(* --- the chase ----------------------------------------------------------- *)

(* Is the rule mask (words [off .. off + k]) a subset of [bits]? *)
let rec mask_subset (masks : int array) off (bits : int array) k =
  k < 0
  ||
  let m = Array.unsafe_get masks (off + k) in
  m land Array.unsafe_get bits k = m && mask_subset masks off bits (k - 1)

(* Allocation-free scan of premise slots [k .. last]: every constant entry
   is bound to its constant.  The caller's self-mask test has already
   checked that those positions are bound. *)
let rec consts_hold (lp : int array) (lv : Value.t array) (pos_val : Value.t array) k last =
  k > last
  ||
  let v = Array.unsafe_get lv k in
  (v == wild_v || Value.equal (Array.unsafe_get pos_val (Array.unsafe_get lp k)) v)
  && consts_hold lp lv pos_val (k + 1) last

(* Apply rule [i] once; returns whether the state changed.  A 'w' rule's
   premise is its pair instance: the rows agree on every LHS position
   (pair mask ⊆ E) and the constant entries are bound to their constants.
   A 'c' rule's premise is its (t, t) instance, where only the constant
   entries count (self mask ⊆ B; DESIGN §5.1) — its pair instance never
   concludes more.  A rule whose premise held retires for the rest of the
   chase: its effect is in the state, which only grows, so applying it
   again would change nothing. *)
let apply_rule pk st i =
  match Bytes.unsafe_get pk.kind i with
  | 'a' ->
    st.t_apps <- st.t_apps + 1;
    Array.unsafe_set pk.retired i pk.gen;
    union st
      (Array.unsafe_get pk.lhs_pos (Array.unsafe_get pk.lhs_off i))
      (Array.unsafe_get pk.rhs_pos i)
  | 'w' when not st.pair -> false
  | k ->
    let words = pk.words in
    let mbase = 2 * words * i in
    if
      (k = 'w' && not (mask_subset pk.masks mbase st.eq (words - 1)))
      || not (mask_subset pk.masks (mbase + words) st.bnd (words - 1))
    then begin
      st.t_skips <- st.t_skips + 1;
      false
    end
    else begin
      st.t_apps <- st.t_apps + 1;
      let off = Array.unsafe_get pk.lhs_off i in
      if
        consts_hold pk.lhs_pos pk.lhs_val st.pos_val off
          (off + Array.unsafe_get pk.lhs_len i - 1)
      then begin
        Array.unsafe_set pk.retired i pk.gen;
        let rp = Array.unsafe_get pk.rhs_pos i in
        if k = 'c' then bind st rp (Array.unsafe_get pk.rhs_val i) else agree st rp
      end
      else false
    end

(* Witness collection for provenance: a rule index is marked as soon as
   one of its applications changes the chase state (or conflicts) — the
   marked subset alone replays the same chase, so it implies the same
   conclusion.  Retired rules are skipped: only no-op applications go. *)
let apply pk st mask fired i =
  let on =
    match mask with
    | None -> true
    | Some m -> Bytes.unsafe_get m i <> '\000'
  in
  if on then
    if Array.unsafe_get pk.retired i = pk.gen then st.t_retired <- st.t_retired + 1
    else
      match fired with
      | None -> ignore (apply_rule pk st i)
      | Some b -> (
        match apply_rule pk st i with
        | changed -> if changed then Bytes.set b i '\001'
        | exception Conflict ->
          Bytes.set b i '\001';
          raise Conflict)

let rec apply_list pk st mask fired = function
  | [] -> ()
  | i :: rest ->
    apply pk st mask fired i;
    apply_list pk st mask fired rest

(* Apply the rules of a slot-linked list, [next] giving each slot's
   successor. *)
let rec apply_slots pk st mask fired (next : int array) k =
  if k >= 0 then begin
    apply pk st mask fired (Array.unsafe_get pk.slot_rule k);
    apply_slots pk st mask fired next (Array.unsafe_get next k)
  end

(* Link rule [i]'s premise slots into this chase's live lists. *)
let link pk i =
  let gen = pk.gen in
  let off = Array.unsafe_get pk.lhs_off i in
  for k = off to off + Array.unsafe_get pk.lhs_len i - 1 do
    let p = Array.unsafe_get pk.lhs_pos k in
    if Array.unsafe_get pk.live_gen p <> gen then begin
      Array.unsafe_set pk.live_gen p gen;
      Array.unsafe_set pk.live_head p (-1)
    end;
    Array.unsafe_set pk.live_next k (Array.unsafe_get pk.live_head p);
    Array.unsafe_set pk.live_head p k
  done

(* Wake the rules keyed at position [p] on the constant bound there, if
   any.  A keyless rule's [max_int] stamp is never lowered, so a stale
   key-index entry left by {!set_rule_ir} cannot link it twice. *)
let wake pk st p =
  if bit_mem st.bnd p then begin
    let gen = pk.gen in
    let v = Array.unsafe_get st.pos_val p in
    for j = Array.unsafe_get pk.key_off p to Array.unsafe_get pk.key_off (p + 1) - 1 do
      let i = Array.unsafe_get pk.key_rule j in
      if Array.unsafe_get pk.awake i < gen && Value.equal (Array.unsafe_get pk.key_val j) v
      then begin
        Array.unsafe_set pk.awake i gen;
        st.t_wakes <- st.t_wakes + 1;
        link pk i
      end
    done
  end

let publish st tracing =
  if Obs.enabled () then begin
    Obs.incr c_chases;
    Obs.add c_rounds st.t_rounds;
    Obs.add c_rule_apps st.t_apps;
    Obs.add c_firings st.t_firings;
    Obs.add c_mask_skips st.t_skips;
    Obs.add c_retired_skips st.t_retired;
    Obs.add c_rule_wakes st.t_wakes;
    Obs.add c_goal_stops st.t_goal_stops
  end;
  if tracing then
    Obs.trace_end
      ~args:
        [
          ("rounds", string_of_int st.t_rounds);
          ("rule_applications", string_of_int st.t_apps);
          ("firings", string_of_int st.t_firings);
        ]
      "fast_impl.chase"

(* Semi-naive fixpoint over the caller-seeded arena: the seeded positions
   are queued, one pass applies the autonomous rules, then a worklist of
   dirty positions re-applies only the rules watching them.  A position is
   dirty when its class changed ([mark_class]).  The caller must have
   [arena_reset] and seeded the classes.

   The query's goal rides along positionally (an optional argument would
   box), as {!goal_holds} reads it.  Before each dirty position the chase
   stops if the goal already holds.  That is exact: the state only grows,
   so a goal met now is met at the fixpoint, and a later [Conflict] would
   answer true as well.

   A goal chase touches only rules that can still change its state.  A
   keyed rule is ignored until a pop of its key position finds the key
   constant bound there: that is exact, because every position of a class
   that gains a constant is queued, and constants only accumulate.  The
   pop then links the rule's slots into the live lists, which the pops of
   its positions scan after the keyless lists.  A witness chase
   ([fired]) runs to the fixpoint over every rule, in the watcher index's
   order, so its witness does not depend on the goal or on wake-up. *)
let chase pk mask fired pair ga gb gv =
  let st = pk.arena in
  let n = pk.arity in
  let goal = Option.is_none fired in
  pk.gen <- pk.gen + 1;
  st.pair <- pair;
  st.t_rounds <- 0;
  st.t_apps <- 0;
  st.t_firings <- 0;
  st.t_skips <- 0;
  st.t_retired <- 0;
  st.t_wakes <- 0;
  st.t_goal_stops <- 0;
  let tracing = Obs.trace_enabled () in
  if tracing then Obs.trace_begin "fast_impl.chase";
  match
    (* Queue the seeded positions, bound ones first, then agreed ones,
       each ascending: the order of a seed scan over the cells of t1, then
       of t2.  Seeded classes are still singletons. *)
    for p = 0 to n - 1 do
      if is_set st.bound p then mark_class st p
    done;
    for p = 0 to n - 1 do
      if is_set st.agree p && not (is_set st.bound p) then mark_class st p
    done;
    st.t_rounds <- st.t_rounds + 1;
    apply_list pk st mask fired pk.autonomous;
    while st.qhead <> st.qtail do
      if goal && goal_holds st ga gb gv then begin
        (* Queued entries stay marked dirty; [arena_reset] clears them. *)
        st.t_goal_stops <- 1;
        st.qhead <- st.qtail
      end
      else begin
        let p = Array.unsafe_get st.queue st.qhead in
        let h = st.qhead + 1 in
        st.qhead <- (if h = Array.length st.queue then 0 else h);
        Bytes.unsafe_set st.dirty p '\000';
        st.t_rounds <- st.t_rounds + 1;
        if goal then begin
          if Array.unsafe_get pk.key_off p < Array.unsafe_get pk.key_off (p + 1) then
            wake pk st p;
          apply_slots pk st mask fired pk.keyless_next
            (Array.unsafe_get pk.keyless_head p);
          if Array.unsafe_get pk.live_gen p = pk.gen then
            apply_slots pk st mask fired pk.live_next (Array.unsafe_get pk.live_head p)
        end
        else
          for k = Array.unsafe_get pk.watch_off p to Array.unsafe_get pk.watch_off (p + 1) - 1 do
            apply pk st mask fired (Array.unsafe_get pk.watch k)
          done
      end
    done
  with
  | () -> publish st tracing
  | exception Conflict ->
    publish st tracing;
    raise Conflict

(* --- compilation --------------------------------------------------------- *)

type proto =
  | PStandard of { lhs : (int * Value.t) array; rhs_pos : int; rhs_v : Value.t }
  | PAttr_eq of int * int

(* The first constant entry among rule slots [off .. off + len - 1]: a
   keyed rule's key. *)
let first_const pk off len =
  let rec go k =
    if k >= off + len then None
    else if pk.lhs_val.(k) != wild_v then Some (pk.lhs_pos.(k), pk.lhs_val.(k))
    else go (k + 1)
  in
  go off

(* Link keyless rule [i]'s premise slots into the keyless lists — unless
   it is a constant-RHS rule with no constant entry: its premise always
   holds, so the autonomous pass fires it and nothing re-applies it.
   Attr-eq rules are autonomous too. *)
let link_keyless pk i =
  let off = pk.lhs_off.(i) and len = pk.lhs_len.(i) in
  if Bytes.get pk.kind i = 'w' || Option.is_some (first_const pk off len) then
    for k = off to off + len - 1 do
      let p = pk.lhs_pos.(k) in
      pk.keyless_next.(k) <- pk.keyless_head.(p);
      pk.keyless_head.(p) <- k
    done

let assemble ~pos_of_name ~arity protos =
  Obs.incr c_compiles;
  if arity > Sys.int_size - 2 then Obs.incr c_wide_compiles;
  let words = words_for arity in
  let nrules = Array.length protos in
  let total =
    Array.fold_left
      (fun acc p ->
        acc
        + match p with PStandard { lhs; _ } -> Array.length lhs | PAttr_eq _ -> 1)
      0 protos
  in
  let kind = Bytes.make (max 1 nrules) 'w' in
  let lhs_off = Array.make (max 1 nrules) 0 in
  let lhs_len = Array.make (max 1 nrules) 0 in
  let rhs_pos = Array.make (max 1 nrules) 0 in
  let rhs_val = Array.make (max 1 nrules) wild_v in
  let lhs_pos = Array.make (max 1 total) 0 in
  let lhs_val = Array.make (max 1 total) wild_v in
  let slot_rule = Array.make (max 1 total) 0 in
  let masks = Array.make (max 1 (2 * words * nrules)) 0 in
  let wcount = Array.make (arity + 1) 0 in
  let off = ref 0 in
  let autonomous = ref [] in
  Array.iteri
    (fun i p ->
      lhs_off.(i) <- !off;
      match p with
      | PAttr_eq (a, b) ->
        Bytes.set kind i 'a';
        lhs_len.(i) <- 1;
        lhs_pos.(!off) <- a;
        slot_rule.(!off) <- i;
        incr off;
        rhs_pos.(i) <- b;
        autonomous := i :: !autonomous
      | PStandard { lhs; rhs_pos = rp; rhs_v } ->
        Bytes.set kind i (if rhs_v == wild_v then 'w' else 'c');
        lhs_len.(i) <- Array.length lhs;
        rhs_pos.(i) <- rp;
        rhs_val.(i) <- rhs_v;
        let mbase = 2 * words * i in
        let all_wild = ref true in
        Array.iter
          (fun (p, v) ->
            lhs_pos.(!off) <- p;
            lhs_val.(!off) <- v;
            slot_rule.(!off) <- i;
            incr off;
            wcount.(p) <- wcount.(p) + 1;
            let w = p lsr word_shift and bit = 1 lsl (p land word_mask) in
            masks.(mbase + w) <- masks.(mbase + w) lor bit;
            if v != wild_v then begin
              all_wild := false;
              masks.(mbase + words + w) <- masks.(mbase + words + w) lor bit
            end)
          lhs;
        if !all_wild then autonomous := i :: !autonomous)
    protos;
  let watch_off = Array.make (arity + 1) 0 in
  for p = 0 to arity - 1 do
    watch_off.(p + 1) <- watch_off.(p) + wcount.(p)
  done;
  let watch = Array.make (max 1 watch_off.(arity)) 0 in
  let cursor = Array.copy watch_off in
  Array.iteri
    (fun i p ->
      match p with
      | PAttr_eq _ -> ()
      | PStandard { lhs; _ } ->
        Array.iter
          (fun (pp, _) ->
            watch.(cursor.(pp)) <- i;
            cursor.(pp) <- cursor.(pp) + 1)
          lhs)
    protos;
  (* Each standard rule is keyed on its first constant LHS entry. *)
  let keys =
    Array.map
      (function
        | PStandard { lhs; _ } -> Array.find_opt (fun (_, v) -> v != wild_v) lhs
        | PAttr_eq _ -> None)
      protos
  in
  let key_off = Array.make (arity + 1) 0 in
  Array.iter (Option.iter (fun (p, _) -> key_off.(p + 1) <- key_off.(p + 1) + 1)) keys;
  for p = 0 to arity - 1 do
    key_off.(p + 1) <- key_off.(p + 1) + key_off.(p)
  done;
  let key_rule = Array.make (max 1 key_off.(arity)) 0 in
  let key_val = Array.make (max 1 key_off.(arity)) wild_v in
  let kcursor = Array.copy key_off in
  Array.iteri
    (fun i ->
      Option.iter (fun (p, v) ->
          key_rule.(kcursor.(p)) <- i;
          key_val.(kcursor.(p)) <- v;
          kcursor.(p) <- kcursor.(p) + 1))
    keys;
  let pk =
  {
    pos_of_name;
    arity;
    words;
    nrules;
    kind;
    lhs_off;
    lhs_len;
    rhs_pos;
    rhs_val;
    lhs_pos;
    lhs_val;
    slot_rule;
    masks;
    watch_off;
    watch;
    key_off;
    key_rule;
    key_val;
    awake = Array.map (fun k -> if Option.is_some k then 0 else max_int) keys;
    retired = Array.make (max 1 nrules) 0;
    live_gen = Array.make (max 1 arity) 0;
    live_head = Array.make (max 1 arity) (-1);
    live_next = Array.make (max 1 total) (-1);
    gen = 0;
    keyless_head = Array.make (max 1 arity) (-1);
    keyless_next = Array.make (max 1 total) (-1);
    autonomous = List.rev !autonomous;
    arena = arena_create arity words;
  }
  in
  Array.iteri (fun i k -> if Option.is_none k then link_keyless pk i) keys;
  pk

let proto_of_ast pos c =
  if C.is_attr_eq c then
    match c.C.lhs, c.C.rhs with
    | [ (a, _) ], (b, _) -> PAttr_eq (pos a, pos b)
    | _ -> assert false
  else
    PStandard
      {
        lhs =
          Array.of_list (List.map (fun (a, p) -> (pos a, pat_value p)) c.C.lhs);
        rhs_pos = pos (fst c.C.rhs);
        rhs_v = pat_value (snd c.C.rhs);
      }

let compile schema sigma =
  let pos a = Schema.attr_index schema a in
  assemble ~pos_of_name:pos ~arity:(Schema.arity schema)
    (Array.of_list (List.map (proto_of_ast pos) sigma))

(* --- the IR front-end ---------------------------------------------------- *)

let ipos space id =
  let p = Ir.pos space id in
  if p < 0 then invalid_arg "Fast_impl: attribute not in the compilation space";
  p

let proto_of_ir space ic =
  if Ir.is_attr_eq ic then
    PAttr_eq (ipos space (fst ic.Ir.lhs.(0)), ipos space (fst ic.Ir.rhs))
  else
    PStandard
      {
        lhs = Array.map (fun (a, p) -> (ipos space a, pat_value p)) ic.Ir.lhs;
        rhs_pos = ipos space (fst ic.Ir.rhs);
        rhs_v = pat_value (snd ic.Ir.rhs);
      }

let no_names _ =
  invalid_arg "Fast_impl: IR-compiled rule set has no attribute names"

let compile_ir space isigma =
  assemble ~pos_of_name:no_names ~arity:(Ir.arity space)
    (Array.of_list (List.map (proto_of_ir space) isigma))

(* Rule [i] loses its key: no key wakes it from now on, and its slots
   join the keyless lists at its current positions, which a later shrink
   only narrows.  A rule that never had a key is linked already. *)
let unkey pk i =
  if pk.awake.(i) <> max_int then begin
    pk.awake.(i) <- max_int;
    link_keyless pk i
  end

let set_rule_ir pk space i ic =
  let words = pk.words in
  let off = pk.lhs_off.(i) in
  let old_len = pk.lhs_len.(i) in
  let old_key = first_const pk off old_len in
  let mbase = 2 * words * i in
  Array.fill pk.masks mbase (2 * words) 0;
  match proto_of_ir space ic with
  | PAttr_eq (a, b) ->
    if old_len < 1 then invalid_arg "Fast_impl.set_rule_ir: premise grew";
    (* Its one application, in the autonomous pass, is unconditional. *)
    pk.awake.(i) <- max_int;
    Bytes.set pk.kind i 'a';
    pk.lhs_len.(i) <- 1;
    pk.lhs_pos.(off) <- a;
    pk.lhs_val.(off) <- wild_v;
    pk.rhs_pos.(i) <- b;
    pk.rhs_val.(i) <- wild_v;
    if not (List.mem i pk.autonomous) then pk.autonomous <- i :: pk.autonomous
  | PStandard { lhs; rhs_pos; rhs_v } ->
    let len = Array.length lhs in
    if len > old_len then invalid_arg "Fast_impl.set_rule_ir: premise grew";
    Bytes.set pk.kind i (if rhs_v == wild_v then 'w' else 'c');
    pk.lhs_len.(i) <- len;
    pk.rhs_pos.(i) <- rhs_pos;
    pk.rhs_val.(i) <- rhs_v;
    let all_wild = ref true in
    Array.iteri
      (fun k (p, v) ->
        pk.lhs_pos.(off + k) <- p;
        pk.lhs_val.(off + k) <- v;
        let w = p lsr word_shift and bit = 1 lsl (p land word_mask) in
        pk.masks.(mbase + w) <- pk.masks.(mbase + w) lor bit;
        if v != wild_v then begin
          all_wild := false;
          pk.masks.(mbase + words + w) <- pk.masks.(mbase + words + w) lor bit
        end)
      lhs;
    (* A shrink keeps the LHS order, so a kept key entry is still the first
       constant one; a shrink that drops it leaves the rule keyless. *)
    (match old_key, first_const pk off len with
     | Some (p, v), Some (p', v') when p = p' && Value.equal v v' -> ()
     | _ -> unkey pk i);
    (* A rule can {e become} autonomous when its last constrained LHS entry
       goes; the watcher and key indexes are not shrunk (stale entries are
       harmless). *)
    if !all_wild && not (List.mem i pk.autonomous) then
      pk.autonomous <- i :: pk.autonomous

let num_rules pk = pk.nrules

(* Rule masks: a bitset over the rules (one byte per rule) enabling
   leave-one-out pruning without recompiling. *)
type mask = Bytes.t

let full_mask pk = Bytes.make pk.nrules '\001'

let mask_clear m i = Bytes.set m i '\000'
let mask_set m i = Bytes.set m i '\001'

(* --- implication queries ------------------------------------------------- *)

let implies_attr_eq_pos pk mask fired pa pb =
  arena_reset pk.arena pk.arity;
  match chase pk mask fired false pa pb wild_v with
  | () -> goal_holds pk.arena pa pb wild_v
  | exception Conflict -> true

let ensure_query_scratch st qlen =
  if qlen > Array.length st.q_pos then begin
    st.q_pos <- Array.make qlen 0;
    st.q_val <- Array.make qlen wild_v
  end

(* The query LHS sits in [q_pos]/[q_val] (filled by the front-ends): two
   tuples agreeing on the LHS and matching its constants, one chase.  For
   a constant RHS the pair's chase also decides the single-tuple (t, t)
   case: the bound constants, and any conflict, evolve in it exactly as in
   a (t, t) chase, so the goal "A bound to the constant" answers both
   (DESIGN §6.2). *)
let implies_standard_pos pk mask fired qlen rp rhs_v =
  let st = pk.arena in
  arena_reset st pk.arity;
  match
    for k = 0 to qlen - 1 do
      let p = st.q_pos.(k) in
      let v = st.q_val.(k) in
      if v == wild_v then Bytes.unsafe_set st.agree p '\001'
      else if not (is_set st.bound p) then begin
        Bytes.unsafe_set st.bound p '\001';
        st.cls_val.(p) <- v
      end
      else if not (Value.equal st.cls_val.(p) v) then raise Conflict
    done;
    chase pk mask fired true rp rp rhs_v
  with
  | () -> goal_holds st rp rp rhs_v
  | exception Conflict -> true

let implies ?mask ?fired pk phi =
  C.is_trivial phi
  ||
  let pos = pk.pos_of_name in
  if C.is_attr_eq phi then
    match phi.C.lhs, phi.C.rhs with
    | [ (a, _) ], (b, _) -> implies_attr_eq_pos pk mask fired (pos a) (pos b)
    | _ -> assert false
  else begin
    let st = pk.arena in
    let qlen = List.length phi.C.lhs in
    ensure_query_scratch st qlen;
    List.iteri
      (fun k (a, p) ->
        st.q_pos.(k) <- pos a;
        st.q_val.(k) <- pat_value p)
      phi.C.lhs;
    implies_standard_pos pk mask fired qlen
      (pos (fst phi.C.rhs))
      (pat_value (snd phi.C.rhs))
  end

let implies_ir ?mask ?fired space pk iphi =
  Ir.is_trivial iphi
  ||
  if Ir.is_attr_eq iphi then
    implies_attr_eq_pos pk mask fired
      (ipos space (fst iphi.Ir.lhs.(0)))
      (ipos space (fst iphi.Ir.rhs))
  else begin
    let st = pk.arena in
    let lhs = iphi.Ir.lhs in
    let qlen = Array.length lhs in
    ensure_query_scratch st qlen;
    for k = 0 to qlen - 1 do
      let a, p = Array.unsafe_get lhs k in
      st.q_pos.(k) <- ipos space a;
      st.q_val.(k) <- pat_value p
    done;
    implies_standard_pos pk mask fired qlen
      (ipos space (fst iphi.Ir.rhs))
      (pat_value (snd iphi.Ir.rhs))
  end
