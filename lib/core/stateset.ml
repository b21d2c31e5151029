type t = {
  id : int;
  states : int array;
}

(* The hash-consing table is process-global and statesets are created
   while queries run, so concurrent domains (the serve front end) must
   serialize access to it. *)
let table : (int list, t) Hashtbl.t = Hashtbl.create 64
let counter = ref 0
let lock = Mutex.create ()
let lock_site = Sxsi_obs.Contend.site "stateset.cons"

let cons key =
  Sxsi_obs.Contend.with_lock lock_site lock (fun () ->
      match Hashtbl.find_opt table key with
      | Some s -> s
      | None ->
        let s = { id = !counter; states = Array.of_list key } in
        incr counter;
        Hashtbl.add table key s;
        s)

let empty = cons []

(* the empty set is the common case and needs no lock *)
let of_list = function [] -> empty | l -> cons (List.sort_uniq compare l)

let is_empty s = Array.length s.states = 0

let mem s q =
  (* sets are tiny (query-sized); linear scan beats binary search *)
  let n = Array.length s.states in
  let rec go i = i < n && (s.states.(i) = q || go (i + 1)) in
  go 0

let cardinal s = Array.length s.states
let iter f s = Array.iter f s.states
let to_list s = Array.to_list s.states
let singleton s = if Array.length s.states = 1 then Some s.states.(0) else None
