(** Atomic data values.

    Values populate attribute columns.  The paper's examples mix strings
    (names, cities), integers (area codes in the generators, which draw
    constants from [\[1, 100000\]]) and Booleans (the canonical finite
    domain).  A value carries its own runtime type; schemas constrain which
    values may appear in which column via {!Domain}. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** [pp] prints a value the way the paper writes constants, e.g. [‘44’] is
    printed as ['44']. *)
val pp : t Fmt.t

val to_string : t -> string

(** [int n], [str s], [bool b] are construction shorthands. *)

val int : int -> t
val str : string -> t
val bool : bool -> t
