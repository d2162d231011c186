type t =
  | Int of int
  | Str of string
  | Bool of bool

let equal a b =
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | (Int _ | Str _ | Bool _), _ -> false

let compare a b =
  let tag = function Int _ -> 0 | Str _ -> 1 | Bool _ -> 2 in
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Int.compare (tag a) (tag b)

let to_string = function
  | Int x -> string_of_int x
  | Str x -> x
  | Bool x -> string_of_bool x

let pp ppf v = Fmt.pf ppf "'%s'" (to_string v)
let int n = Int n
let str s = Str s
let bool b = Bool b
