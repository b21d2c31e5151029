open Sxsi_bits

(* Profiling probe — same discipline as Fm_index: one atomic load and
   branch per jump call when disabled, nothing per internal step. *)

type probe = {
  jump_calls : Sxsi_obs.Counter.t;
  tag_reads : Sxsi_obs.Counter.t;
}

let create_probe () =
  { jump_calls = Sxsi_obs.Counter.create (); tag_reads = Sxsi_obs.Counter.create () }

let active_probe : probe option Atomic.t = Atomic.make None

let set_probe p = Atomic.set active_probe p
let current_probe () = Atomic.get active_probe

let probe_jump () =
  match Atomic.get active_probe with
  | None -> ()
  | Some pr -> Sxsi_obs.Counter.incr pr.jump_calls

let probe_tag_read () =
  match Atomic.get active_probe with
  | None -> ()
  | Some pr -> Sxsi_obs.Counter.incr pr.tag_reads

type t = {
  bp : Bp.t;
  tcount : int;
  tags : Intvec.t;            (* tag id at every parenthesis position *)
  rows : Sparse.t array;      (* per tag: opening positions carrying it *)
}

(* Minimum parenthesis count before the bucket scan is chunked across a
   pool. *)
let par_cutoff = 1 lsl 15

let build ?pool bp ~tag_count ~tags =
  let n = Bp.length bp in
  if Array.length tags <> n then invalid_arg "Tag_index.build: length mismatch";
  (* Bucket the opening positions of [lo, hi) per tag, ascending. *)
  let bucket lo hi =
    let bs = Array.make tag_count [] in
    for i = hi - 1 downto lo do
      let tg = tags.(i) in
      if tg < 0 || tg >= tag_count then invalid_arg "Tag_index.build: tag out of range";
      if Bp.is_open bp i then bs.(tg) <- i :: bs.(tg)
    done;
    bs
  in
  let use_pool =
    match pool with
    | Some p when Sxsi_par.Pool.size p > 1 && n >= par_cutoff -> Some p
    | _ -> None
  in
  let buckets =
    match use_pool with
    | Some p ->
      (* per-chunk buckets concatenate in chunk order, so each tag's
         position list is the same ascending sequence the sequential
         scan produces *)
      let k = min (4 * Sxsi_par.Pool.size p) n in
      let ranges = Array.init k (fun j -> (n * j / k, n * (j + 1) / k)) in
      let chunked = Sxsi_par.Pool.map_array p (fun (lo, hi) -> bucket lo hi) ranges in
      Array.init tag_count (fun tg ->
          List.concat (Array.to_list (Array.map (fun bs -> bs.(tg)) chunked)))
    | None -> bucket 0 n
  in
  let mk_row l = Sparse.of_sorted ~universe:(max 1 n) (Array.of_list l) in
  let rows =
    match use_pool with
    | Some p -> Sxsi_par.Pool.map_array p mk_row buckets
    | None -> Array.map mk_row buckets
  in
  let width =
    let rec go v acc = if v = 0 then max 1 acc else go (v lsr 1) (acc + 1) in
    go (max 1 (tag_count - 1)) 0
  in
  let iv = Intvec.make n width in
  Array.iteri (fun i tg -> Intvec.set iv i tg) tags;
  { bp; tcount = tag_count; tags = iv; rows }

let tag_count t = t.tcount
let tag t i =
  probe_tag_read ();
  Intvec.get t.tags i
let tags_into t i dst n = Intvec.blit_to t.tags i dst n
let count t tg = Sparse.length t.rows.(tg)
let rank_tag t tg i = Sparse.rank t.rows.(tg) i
let select_tag t tg j = Sparse.get t.rows.(tg) j

let subtree_tags t x tg =
  let c = Bp.close t.bp x in
  Sparse.rank t.rows.(tg) (c + 1) - Sparse.rank t.rows.(tg) x

let tagged_desc t x tg =
  probe_jump ();
  let c = Bp.close t.bp x in
  let p = Sparse.next t.rows.(tg) (x + 1) in
  if p >= 0 && p < c then p else -1

let tagged_foll t x tg =
  probe_jump ();
  let c = Bp.close t.bp x in
  Sparse.next t.rows.(tg) (c + 1)

let tagged_next t i tg =
  probe_jump ();
  Sparse.next t.rows.(tg) i

let tagged_prec t x tg =
  probe_jump ();
  let rec go p =
    match Sparse.prev t.rows.(tg) p with
    | -1 -> -1
    | q -> if Bp.is_ancestor t.bp q x then go q else q
  in
  go x

let space_bits t =
  Intvec.space_bits t.tags
  + Array.fold_left (fun acc r -> acc + Sparse.space_bits r) 0 t.rows
  + 192
