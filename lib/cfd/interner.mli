(** Attribute-name interning: a bijection between the attribute names seen so
    far and the dense integer ids [0 .. size-1].  The hot paths of the
    propagation engine (RBR resolution, bucket indexes, degree counts) work
    over interned ids and sorted arrays instead of string-keyed assoc lists;
    names are only resolved back at the boundary. *)

type t

(** [create ()] is an empty interner. *)
val create : unit -> t

(** [intern t name] is the id of [name], allocating the next free id on first
    sight.  Ids are assigned in order of first interning. *)
val intern : t -> string -> int

(** [name t id] is the name with id [id].  Raises [Invalid_argument] on ids
    never handed out. *)
val name : t -> int -> string

(** Number of distinct names interned. *)
val size : t -> int
