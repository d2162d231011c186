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
let c_dormant_skips = Obs.counter "fast_impl.dormant_skips"
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
   once at compile time (cells = two rows of [arity]) and reset in O(cells)
   per chase, so the steady-state inner loop allocates nothing on the
   minor heap.  A [compiled] value is confined to one domain at a time
   (the partitioned prune compiles per chunk on the worker), so the arena
   needs no synchronisation. *)
type arena = {
  (* Union-find over the chase cells: path-halving [parent]; constants
     split into a presence byte per root plus the value itself, so resets
     never touch the value array and reads never box an option. *)
  parent : int array;
  has_const : Bytes.t;
  cls_val : Value.t array;
  (* Class membership as intrusive linked lists: root [r]'s list starts at
     cell [r] itself (unions keep the smaller root, and both lists start
     at their roots), runs through [memb_next] (-1 terminated) and ends at
     [memb_tail.(r)].  Only roots' tails are maintained. *)
  memb_next : int array;
  memb_tail : int array;
  (* Dirty-position worklist: a ring over positions, each queued at most
     once (the [dirty] byte dedups), so [queue] never overflows. *)
  dirty : Bytes.t;
  queue : int array;
  mutable qhead : int;
  mutable qtail : int;
  (* Packed bitset of positions carrying any constraint (equality or
     constant) — the mask pre-filter's right-hand side.  Monotone within
     one chase. *)
  active : int array;
  (* Positional scratch for the query's LHS ([implies] setup); grown on
     demand for pathological queries with repeated attributes. *)
  mutable q_pos : int array;
  mutable q_val : Value.t array;
  (* Chase tallies, published to the sink once per chase. *)
  mutable t_rounds : int;
  mutable t_apps : int;
  mutable t_firings : int;
  mutable t_skips : int;
  mutable t_dormant : int;
  mutable t_goal_stops : int;
}

let arena_create arity words =
  let ncells = max 1 (2 * arity) in
  {
    parent = Array.init ncells (fun i -> i);
    has_const = Bytes.make ncells '\000';
    cls_val = Array.make ncells wild_v;
    memb_next = Array.make ncells (-1);
    memb_tail = Array.init ncells (fun i -> i);
    dirty = Bytes.make (max 1 arity) '\000';
    queue = Array.make (arity + 1) 0;
    qhead = 0;
    qtail = 0;
    active = Array.make words 0;
    q_pos = Array.make (max 1 arity) 0;
    q_val = Array.make (max 1 arity) wild_v;
    t_rounds = 0;
    t_apps = 0;
    t_firings = 0;
    t_skips = 0;
    t_dormant = 0;
    t_goal_stops = 0;
  }

(* The compiled rule set, struct-of-arrays.  [kind] is 'a' (attr-eq),
   'w' (standard, wildcard RHS) or 'c' (standard, constant RHS); rule
   [i]'s premise occupies [lhs_pos]/[lhs_val] slots
   [lhs_off.(i) .. lhs_off.(i) + lhs_len.(i) - 1], and its applicability
   bitmasks occupy [masks] slots [2*words*i ..]: [words] pair-mask words,
   then [words] self-mask words.  The semi-naive watcher index is in CSR
   form: position [p]'s watching rules are
   [watch.(watch_off.(p) .. watch_off.(p+1) - 1)].

   Constant-keyed wake-up: a standard rule whose LHS has a constant entry
   is keyed on the first one, and the key index (CSR again) lists the rules
   keyed at position [p] with their key constants in
   [key_rule]/[key_val] slots [key_off.(p) .. key_off.(p+1) - 1].  Its
   premise cannot hold before a cell at the key position is bound to the
   key constant, so during a chase the rule stays dormant until then. *)
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
  masks : int array;
  watch_off : int array;
  watch : int array;
  key_off : int array;
  key_rule : int array;
  key_val : Value.t array;
  (* Per-rule wake stamp: a keyed rule is live in the chase whose
     generation [gen] it carries; keyless rules (attr-eq, all-wildcard LHS,
     and rules whose key entry {!set_rule_ir} dropped) carry [max_int] and
     are always live. *)
  awake : int array;
  mutable gen : int;
  (* Rules that can fire on a pristine union-find: Attr_eq, empty-LHS and
     all-wildcard-LHS rules.  Mutable: {!set_rule_ir} can only add entries
     (LHS shrinking may make a rule autonomous, never the reverse). *)
  mutable autonomous : int list;
  arena : arena;
}

(* --- arena primitives ---------------------------------------------------- *)

let arena_reset st ncells =
  if Obs.enabled () then Obs.incr c_arena_resets;
  for i = 0 to ncells - 1 do
    Array.unsafe_set st.parent i i;
    Array.unsafe_set st.memb_next i (-1);
    Array.unsafe_set st.memb_tail i i
  done;
  Bytes.fill st.has_const 0 ncells '\000';
  (* A conflicted chase aborts with queued entries; clear unconditionally. *)
  Bytes.fill st.dirty 0 (Bytes.length st.dirty) '\000';
  Array.fill st.active 0 (Array.length st.active) 0;
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

(* Two cells are equal when they share a root or are both bound to the
   same constant. *)
let cells_equal st i j =
  let ri = find st.parent i and rj = find st.parent j in
  ri = rj
  || Bytes.unsafe_get st.has_const ri <> '\000'
     && Bytes.unsafe_get st.has_const rj <> '\000'
     && Value.equal (Array.unsafe_get st.cls_val ri) (Array.unsafe_get st.cls_val rj)

(* Setup-time union over roots (no worklist marking; the chase seeds from
   a full scan).  Returns true if something changed. *)
let union_roots st ri rj =
  if ri = rj then false
  else begin
    if
      Bytes.unsafe_get st.has_const ri <> '\000'
      && Bytes.unsafe_get st.has_const rj <> '\000'
      && not (Value.equal st.cls_val.(ri) st.cls_val.(rj))
    then raise Conflict;
    let keep = if ri < rj then ri else rj in
    let drop = if ri < rj then rj else ri in
    Array.unsafe_set st.parent drop keep;
    if
      Bytes.unsafe_get st.has_const keep = '\000'
      && Bytes.unsafe_get st.has_const drop <> '\000'
    then begin
      Bytes.unsafe_set st.has_const keep '\001';
      st.cls_val.(keep) <- st.cls_val.(drop)
    end;
    Bytes.unsafe_set st.has_const drop '\000';
    (* Append [drop]'s member list (head = drop) after [keep]'s tail. *)
    Array.unsafe_set st.memb_next (Array.unsafe_get st.memb_tail keep) drop;
    Array.unsafe_set st.memb_tail keep (Array.unsafe_get st.memb_tail drop);
    true
  end

let bind_root st r v =
  if Bytes.unsafe_get st.has_const r <> '\000' then
    if Value.equal (Array.unsafe_get st.cls_val r) v then false
    else raise Conflict
  else begin
    Bytes.unsafe_set st.has_const r '\001';
    Array.unsafe_set st.cls_val r v;
    true
  end

let mark_pos st p =
  let w = p lsr word_shift in
  Array.unsafe_set st.active w
    (Array.unsafe_get st.active w lor (1 lsl (p land word_mask)));
  if Bytes.unsafe_get st.dirty p = '\000' then begin
    Bytes.unsafe_set st.dirty p '\001';
    Array.unsafe_set st.queue st.qtail p;
    let t = st.qtail + 1 in
    st.qtail <- (if t = Array.length st.queue then 0 else t)
  end

(* Mark every position of [cell]'s class (cells are row·n + p with row in
   {0, n}, so the position is a compare-and-subtract, not a division). *)
let mark_class st n cell =
  let c = ref (find st.parent cell) in
  while !c >= 0 do
    let cc = !c in
    mark_pos st (if cc >= n then cc - n else cc);
    c := Array.unsafe_get st.memb_next cc
  done

(* Chase-time mutations: tally firings and mark changed classes.  A union
   of two classes already bound to the same constant changes nothing
   observable ([cells_equal] and Const checks were already true via the
   constants) and marks nothing. *)
let union_m st n i j =
  let ri = find st.parent i and rj = find st.parent j in
  if ri = rj then false
  else begin
    let both_const =
      Bytes.unsafe_get st.has_const ri <> '\000'
      && Bytes.unsafe_get st.has_const rj <> '\000'
    in
    ignore (union_roots st ri rj);
    st.t_firings <- st.t_firings + 1;
    if not both_const then mark_class st n i;
    true
  end

let bind_m st n i v =
  let changed = bind_root st (find st.parent i) v in
  if changed then begin
    st.t_firings <- st.t_firings + 1;
    mark_class st n i
  end;
  changed

(* --- the chase ----------------------------------------------------------- *)

(* Allocation-free premise scan over the flat pools (top-level recursion:
   no closure, no [Array.for_all]). *)
let rec premise_holds (lp : int array) (lv : Value.t array) st row row' k last =
  k > last
  ||
  let p = Array.unsafe_get lp k in
  cells_equal st (row + p) (row' + p)
  && (let v = Array.unsafe_get lv k in
      v == wild_v
      ||
      let r = find st.parent (row + p) in
      Bytes.unsafe_get st.has_const r <> '\000'
      && Value.equal (Array.unsafe_get st.cls_val r) v)
  && premise_holds lp lv st row row' (k + 1) last

(* Is the rule mask (words [off .. off + k]) a subset of [active]? *)
let rec mask_subset (masks : int array) off (active : int array) k =
  k < 0
  ||
  let m = Array.unsafe_get masks (off + k) in
  m land Array.unsafe_get active k = m && mask_subset masks off active (k - 1)

(* One premise instantiation of standard rule [i] over rows [row]/[row']. *)
let step pk st n i row row' ch =
  let off = Array.unsafe_get pk.lhs_off i in
  if
    premise_holds pk.lhs_pos pk.lhs_val st row row' off
      (off + Array.unsafe_get pk.lhs_len i - 1)
  then begin
    let rp = Array.unsafe_get pk.rhs_pos i in
    if Bytes.unsafe_get pk.kind i = 'c' then begin
      let v = Array.unsafe_get pk.rhs_val i in
      let c1 = bind_m st n (row + rp) v in
      let c2 = bind_m st n (row' + rp) v in
      c1 || c2 || ch
    end
    else union_m st n (row + rp) (row' + rp) || ch
  end
  else ch

(* Apply rule [i]; returns whether the chase state changed.  The mask
   pre-filter tests the rule's bitmasks against [active]: a cross-row
   instantiation needs every LHS position constrained ([pair] words), a
   single-row (t,t) instantiation passes wildcards vacuously and only
   needs the Const positions bound ([self] words) — and only constant-RHS
   rules have a useful (t,t) form. *)
let apply_rule pk two_rows i =
  let st = pk.arena in
  let n = pk.arity in
  match Bytes.unsafe_get pk.kind i with
  | 'a' ->
    st.t_apps <- st.t_apps + 1;
    let a = Array.unsafe_get pk.lhs_pos (Array.unsafe_get pk.lhs_off i) in
    let b = Array.unsafe_get pk.rhs_pos i in
    let ch = union_m st n a b in
    if two_rows then union_m st n (n + a) (n + b) || ch else ch
  | k ->
    let mbase = 2 * pk.words * i in
    let can_pair = mask_subset pk.masks mbase st.active (pk.words - 1) in
    let can_self =
      k = 'c' && mask_subset pk.masks (mbase + pk.words) st.active (pk.words - 1)
    in
    if not (can_pair || can_self) then begin
      st.t_skips <- st.t_skips + 1;
      false
    end
    else begin
      st.t_apps <- st.t_apps + 1;
      let ch = if can_self then step pk st n i 0 0 false else false in
      if two_rows then begin
        let ch = if can_pair then step pk st n i 0 n ch else ch in
        if can_self then step pk st n i n n ch else ch
      end
      else ch
    end

(* Witness collection for provenance: a rule index is marked as soon as
   one of its applications changes the chase state (or conflicts) — the
   marked subset alone replays the same chase, so it implies the same
   conclusion. *)
let apply pk two_rows mask fired i =
  let on =
    match mask with
    | None -> true
    | Some m -> Bytes.unsafe_get m i <> '\000'
  in
  if on then
    match fired with
    | None -> ignore (apply_rule pk two_rows i)
    | Some b -> (
      match apply_rule pk two_rows i with
      | changed -> if changed then Bytes.set b i '\001'
      | exception Conflict ->
        Bytes.set b i '\001';
        raise Conflict)

let rec apply_list pk two_rows mask fired = function
  | [] -> ()
  | i :: rest ->
    apply pk two_rows mask fired i;
    apply_list pk two_rows mask fired rest

let publish st tracing =
  if Obs.enabled () then begin
    Obs.incr c_chases;
    Obs.add c_rounds st.t_rounds;
    Obs.add c_rule_apps st.t_apps;
    Obs.add c_firings st.t_firings;
    Obs.add c_mask_skips st.t_skips;
    Obs.add c_dormant_skips st.t_dormant;
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

(* Safe RHS: the term respects the pattern binding in every realisation. *)
let rhs_safe st cell rhs_v =
  rhs_v == wild_v
  ||
  let r = find st.parent cell in
  Bytes.unsafe_get st.has_const r <> '\000'
  && Value.equal (Array.unsafe_get st.cls_val r) rhs_v

(* Wake the rules keyed at position [p] on the constant bound to [cell]'s
   class, if any.  A keyless rule's [max_int] stamp is never lowered, so a
   stale key-index entry left by {!set_rule_ir} cannot make it dormant. *)
let wake pk st p cell gen =
  let r = find st.parent cell in
  if Bytes.unsafe_get st.has_const r <> '\000' then begin
    let v = Array.unsafe_get st.cls_val r in
    for j = Array.unsafe_get pk.key_off p to Array.unsafe_get pk.key_off (p + 1) - 1 do
      let i = Array.unsafe_get pk.key_rule j in
      if Array.unsafe_get pk.awake i < gen && Value.equal (Array.unsafe_get pk.key_val j) v
      then Array.unsafe_set pk.awake i gen
    done
  end

(* Semi-naive fixpoint over the caller-seeded arena: one pass over the
   autonomous rules, then a worklist of dirty positions re-applies only
   the rules watching them.  A position is dirty when some class with a
   cell at it changed observably: a union of two const-free classes
   creates new cross-class equalities only, while a class gaining a
   constant can newly satisfy Const premises anywhere in it, so the whole
   merged class is marked ([mark_class]).  The caller must have
   [arena_reset] and seeded the cells.

   The query's goal rides along positionally (an optional argument would
   box): cells [ga] and [gb] equal and, for a constant [gv], bound to it.
   Before each dirty position the chase stops if the goal already holds.
   That is exact: the union-find state only grows, so a goal met now is
   met at the fixpoint, and a later [Conflict] would answer true as well.
   A witness collection ([fired]) runs to the fixpoint, so the witness is
   the same as without the stop.

   Keyed rules start each chase dormant (a fresh generation [gen]) and the
   watcher scan skips them until a pop of their key position finds a cell
   there bound to their key constant.  That is exact: seeding queues every
   bound position and [mark_class] queues every position of a class that
   gains a constant, so a keyed rule is woken before its premise can hold,
   and it stays live because constants only accumulate.  A witness
   collection treats every rule as live ([live] = 0 is below every stamp),
   so its application order, and its witness, do not depend on wake-up. *)
let chase pk mask fired two_rows ga gb gv =
  let st = pk.arena in
  let n = pk.arity in
  let ncells = if two_rows then 2 * n else n in
  let goal = Option.is_none fired in
  pk.gen <- pk.gen + 1;
  let gen = pk.gen in
  let live = if goal then gen else 0 in
  st.t_rounds <- 0;
  st.t_apps <- 0;
  st.t_firings <- 0;
  st.t_skips <- 0;
  st.t_dormant <- 0;
  st.t_goal_stops <- 0;
  let tracing = Obs.trace_enabled () in
  if tracing then Obs.trace_begin "fast_impl.chase";
  match
    (* Seed the worklist: positions of every cell the caller's setup
       already constrained (shared class or bound constant). *)
    for c = 0 to ncells - 1 do
      let r = find st.parent c in
      if r <> c || Bytes.unsafe_get st.has_const r <> '\000' then
        mark_pos st (if c >= n then c - n else c)
    done;
    st.t_rounds <- st.t_rounds + 1;
    apply_list pk two_rows mask fired pk.autonomous;
    while st.qhead <> st.qtail do
      if goal && cells_equal st ga gb && rhs_safe st ga gv then begin
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
        if Array.unsafe_get pk.key_off p < Array.unsafe_get pk.key_off (p + 1)
        then begin
          wake pk st p p gen;
          if two_rows then wake pk st p (n + p) gen
        end;
        let stop = Array.unsafe_get pk.watch_off (p + 1) in
        let k = ref (Array.unsafe_get pk.watch_off p) in
        while !k < stop do
          let i = Array.unsafe_get pk.watch !k in
          if Array.unsafe_get pk.awake i >= live then apply pk two_rows mask fired i
          else st.t_dormant <- st.t_dormant + 1;
          incr k
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
    masks;
    watch_off;
    watch;
    key_off;
    key_rule;
    key_val;
    awake = Array.map (fun k -> if Option.is_some k then 0 else max_int) keys;
    gen = 0;
    autonomous = List.rev !autonomous;
    arena = arena_create arity words;
  }

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

(* The first constant entry among rule slots [off .. off + len - 1]: a
   keyed rule's key. *)
let first_const pk off len =
  let rec go k =
    if k >= off + len then None
    else if pk.lhs_val.(k) != wild_v then Some (pk.lhs_pos.(k), pk.lhs_val.(k))
    else go (k + 1)
  in
  go off

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
       constant one; a shrink that drops it leaves the rule keyless, always
       live. *)
    (match old_key, first_const pk off len with
     | Some (p, v), Some (p', v') when p = p' && Value.equal v v' -> ()
     | _ -> pk.awake.(i) <- max_int);
    (* A rule can {e become} autonomous when its last constrained LHS entry
       goes; watchers and keys are not shrunk (stale entries are
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
let mask_mem m i = Bytes.get m i <> '\000'

(* --- implication queries ------------------------------------------------- *)

let implies_attr_eq_pos pk mask fired pa pb =
  arena_reset pk.arena pk.arity;
  match chase pk mask fired false pa pb wild_v with
  | () -> cells_equal pk.arena pa pb
  | exception Conflict -> true

let ensure_query_scratch st qlen =
  if qlen > Array.length st.q_pos then begin
    st.q_pos <- Array.make qlen 0;
    st.q_val <- Array.make qlen wild_v
  end

(* The query LHS sits in [q_pos]/[q_val] (filled by the front-ends). *)
let implies_standard_pos pk mask fired qlen rp rhs_v =
  let st = pk.arena in
  let n = pk.arity in
  (* Pair check: two tuples agreeing on (and matching) the LHS. *)
  let pair_ok =
    arena_reset st (2 * n);
    match
      for k = 0 to qlen - 1 do
        let i = st.q_pos.(k) in
        let v = st.q_val.(k) in
        if v == wild_v then
          ignore (union_roots st (find st.parent i) (find st.parent (n + i)))
        else begin
          ignore (bind_root st (find st.parent i) v);
          ignore (bind_root st (find st.parent (n + i)) v)
        end
      done;
      chase pk mask fired true rp (n + rp) rhs_v
    with
    | () -> cells_equal st rp (n + rp) && rhs_safe st rp rhs_v
    | exception Conflict -> true
  in
  pair_ok
  && (rhs_v == wild_v
     ||
     (* Single-tuple check: the (t, t) binding for a constant RHS. *)
     begin
       arena_reset st n;
       match
         for k = 0 to qlen - 1 do
           let v = st.q_val.(k) in
           if v != wild_v then
             ignore (bind_root st (find st.parent st.q_pos.(k)) v)
         done;
         chase pk mask fired false rp rp rhs_v
       with
       | () -> rhs_safe st rp rhs_v
       | exception Conflict -> true
     end)

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
