type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable count : int;
}

let create () = { ids = Hashtbl.create 64; names = Array.make 64 ""; count = 0 }

let size t = t.count

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
    let id = t.count in
    if id = Array.length t.names then begin
      let grown = Array.make (2 * id) "" in
      Array.blit t.names 0 grown 0 id;
      t.names <- grown
    end;
    t.names.(id) <- name;
    Hashtbl.add t.ids name id;
    t.count <- id + 1;
    id

let name t id =
  if id < 0 || id >= t.count then invalid_arg "Interner.name: unknown id";
  t.names.(id)
