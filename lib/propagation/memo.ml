module C = Cfds.Cfd
module P = Cfds.Pattern

let c_hits = Obs.counter "memo.hits"
let c_misses = Obs.counter "memo.misses"
let c_inserts = Obs.counter "memo.inserts"
let c_races = Obs.counter "memo.races"

type payload =
  | Cover of {
      cover : C.t list;
      complete : bool;
      always_empty : bool;
    }
  | Cfds of C.t list
  | Verdict of bool

type stripe = {
  mutex : Mutex.t;
  table : (string, payload) Hashtbl.t;
}

type t = { stripes : stripe array }

(* A power of two, so a key's stripe is its hash masked by [n - 1]. *)
let n_stripes = 16

let create () =
  {
    stripes =
      Array.init n_stripes (fun _ ->
          { mutex = Mutex.create (); table = Hashtbl.create 64 });
  }

let stripe t key = t.stripes.(Hashtbl.hash key land (n_stripes - 1))

(* The first ':'-separated key component names the entry kind ("cover",
   "slice", "impl"); surfacing it on the trace instant makes hit/miss
   patterns readable in Perfetto without leaking full keys. *)
let kind_of key =
  match String.index_opt key ':' with
  | Some i -> String.sub key 0 i
  | None -> key

let find t key =
  let s = stripe t key in
  Mutex.lock s.mutex;
  let r = Hashtbl.find_opt s.table key in
  Mutex.unlock s.mutex;
  (match r with
   | Some _ ->
     Obs.incr c_hits;
     if Obs.trace_enabled () then
       Obs.trace_instant ~args:[ ("kind", kind_of key) ] "memo.hit"
   | None ->
     Obs.incr c_misses;
     if Obs.trace_enabled () then
       Obs.trace_instant ~args:[ ("kind", kind_of key) ] "memo.miss");
  r

let add t key payload =
  let s = stripe t key in
  Mutex.lock s.mutex;
  let duplicate = Hashtbl.mem s.table key in
  if not duplicate then Hashtbl.add s.table key payload;
  Mutex.unlock s.mutex;
  if duplicate then Obs.incr c_races else Obs.incr c_inserts

let find_or_compute t key f =
  match find t key with
  | Some p -> (p, true)
  | None ->
    let p = f () in
    add t key p;
    (p, false)

let entries t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.mutex;
      let n = Hashtbl.length s.table in
      Mutex.unlock s.mutex;
      acc + n)
    0 t.stripes

(* '\x1f'-separated fields make the serialisation prefix-unambiguous even
   though attribute names and values are free-form. *)
let add_sym b = function
  | P.Const v ->
    Buffer.add_char b '=';
    Buffer.add_string b (Relational.Value.to_string v)
  | P.Wild -> Buffer.add_char b '_'
  | P.Svar -> Buffer.add_char b '@'

let buf_cfd b rel lhs (ra, rsym) =
  Buffer.add_string b rel;
  Buffer.add_char b '(';
  List.iter
    (fun (a, sym) ->
      Buffer.add_string b a;
      add_sym b sym;
      Buffer.add_char b '\x1f')
    lhs;
  Buffer.add_string b "->";
  Buffer.add_string b ra;
  add_sym b rsym;
  Buffer.add_char b ')'

let add_cfd b (c : C.t) = buf_cfd b c.C.rel c.C.lhs c.C.rhs

let digest_cfd c =
  let b = Buffer.create 64 in
  add_cfd b c;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_cfds cs =
  let b = Buffer.create 1024 in
  List.iter
    (fun c ->
      add_cfd b c;
      Buffer.add_char b '\x1e')
    cs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_string s = Digest.to_hex (Digest.string s)

(* The schema half of every namespace digest: relation and attribute names
   plus domain kinds (finite domains spelled out — a domain edit must not
   alias a cached artefact). *)
let schema_string (db : Relational.Schema.db) =
  let open Relational in
  let b = Buffer.create 256 in
  List.iter
    (fun rel ->
      Buffer.add_string b (Schema.relation_name rel);
      Buffer.add_char b '(';
      List.iter
        (fun a ->
          Buffer.add_string b (Attribute.name a);
          Buffer.add_char b ':';
          Buffer.add_string b
            (if Domain.is_finite (Attribute.domain a) then
               String.concat ","
                 (List.map Value.to_string (Domain.members (Attribute.domain a)))
             else "*");
          Buffer.add_char b '\x1f')
        (Schema.attributes rel);
      Buffer.add_char b ')')
    (Schema.relations db);
  Buffer.contents b
