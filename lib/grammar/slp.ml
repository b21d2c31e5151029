(* A straight-line program over the parenthesis/tag sequence.

   Terminals encode one parenthesis each: [2*tag] for "(", [2*tag + 1]
   for ")".  Compression is round-based digram replacement (the RePair
   family, applied to the tree's parenthesis string as in TreeRePair):
   each round counts adjacent digrams (non-overlapping within runs of
   equal symbols), assigns one fresh nonterminal to every digram type
   occurring at least [min_freq] times, rewrites the sequence greedily
   left to right, and stops when no digram qualifies or the sequence
   stops shrinking meaningfully.  Rules therefore only reference
   symbols introduced in earlier rounds, so summaries fill in one
   bottom-up pass over rule ids.

   Navigation never expands a rule.  Every nonterminal knows the
   length, net excess, min/max prefix excess, opening count and per-tag
   opening counts of its expansion.  The start sequence is cut into
   blocks of [cblock] slots; per block the structure keeps absolute
   position/excess/opening-count/per-tag-count checkpoints plus a
   range-min-max heap over blocks (the same search structure Bp uses
   over 256-bit blocks, here over checkpoint blocks).  A fwd/bwd excess
   search scans the home block slot by slot, walks the heap to the
   nearest block whose [min, max] interval contains the target — which
   must attain it, because prefix excess moves in ±1 steps — and then
   descends the grammar, left or right first.  Every operation is
   O(log #blocks + cblock + grammar depth).

   All per-rule and per-slot tables are bit-packed ({!Sxsi_bits.Intvec})
   and everything per-slot beyond the symbol itself is reduced to
   per-block checkpoints: the point of this backend is that the
   structure's footprint tracks the grammar size, not the document
   size. *)

module Intvec = Sxsi_bits.Intvec

(* Minimal growable int array (OCaml 5.1 has no Dynarray). *)
module Grow = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push g v =
    if g.n = Array.length g.a then begin
      let a = Array.make (2 * g.n) 0 in
      Array.blit g.a 0 a 0 g.n;
      g.a <- a
    end;
    g.a.(g.n) <- v;
    g.n <- g.n + 1

  let to_array g = Array.sub g.a 0 g.n
end

(* Slots per checkpoint block: the linear-scan unit of every
   navigation operation. *)
let cblock = 64

type t = {
  n : int;                        (* expanded length: one symbol per paren *)
  tcount : int;
  nterm : int;                    (* 2 * tcount; ids below are terminals *)
  (* rules: nonterminal [nterm + r] expands to [left.(r) right.(r)] *)
  left : Intvec.t;
  right : Intvec.t;
  (* per-rule summaries of the expansion; excess-valued summaries are
     stored biased by [n] (they live in [-n, n]) *)
  rlen : Intvec.t;
  rexc_b : Intvec.t;              (* net excess, biased *)
  rmin_b : Intvec.t;              (* min prefix excess over prefixes 1..len *)
  rmax_b : Intvec.t;              (* max prefix excess *)
  ropen : Intvec.t;               (* "(" count *)
  (* per-rule tables of distinct opened tags, flattened: the entries of
     rule [r] live at flat indices [roff r, roff (r+1)) *)
  roff : Intvec.t;
  rtag_flat : Intvec.t;           (* sorted within each rule *)
  rcnt_flat : Intvec.t;
  (* start sequence *)
  seq : Intvec.t;
  (* per-block checkpoints, length nblocks + 1 (the last entry holds
     the totals); values before the block's first slot *)
  cpos : int array;
  cexc : int array;
  copen : int array;
  (* range-min-max heap over blocks: absolute prefix excess attained *)
  bleaves : int;                  (* power of two >= nblocks *)
  hmin : int array;
  hmax : int array;
  (* per-tag opening counts at block checkpoints, length nblocks + 1 *)
  tchk : Intvec.t array;
  leaf_tags : int array;          (* sorted tags enumerated by leaf_rank *)
  depth : int;                    (* derivation height over the start seq *)
}

(* ------------------------------------------------------------------ *)
(* Symbol summaries                                                     *)
(* ------------------------------------------------------------------ *)

let t_len t s = if s < t.nterm then 1 else Intvec.get t.rlen (s - t.nterm)

let t_exc t s =
  if s < t.nterm then (if s land 1 = 0 then 1 else -1)
  else Intvec.get t.rexc_b (s - t.nterm) - t.n

let t_min t s =
  if s < t.nterm then t_exc t s else Intvec.get t.rmin_b (s - t.nterm) - t.n

let t_max t s =
  if s < t.nterm then t_exc t s else Intvec.get t.rmax_b (s - t.nterm) - t.n

let t_open t s = if s < t.nterm then 1 - (s land 1) else Intvec.get t.ropen (s - t.nterm)

(* openings of [tg] in the expansion of [s] *)
let t_cnt t s tg =
  if s < t.nterm then (if s = 2 * tg then 1 else 0)
  else begin
    let r = s - t.nterm in
    let lo = ref (Intvec.get t.roff r) and hi = ref (Intvec.get t.roff (r + 1) - 1) in
    let res = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let tm = Intvec.get t.rtag_flat mid in
      if tm = tg then begin
        res := Intvec.get t.rcnt_flat mid;
        lo := !hi + 1
      end
      else if tm < tg then lo := mid + 1
      else hi := mid - 1
    done;
    !res
  end

let nslots t = Intvec.length t.seq
let nblocks t = Array.length t.cpos - 1

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

(* One round: count digrams (non-overlapping within equal-symbol runs),
   pick every type with [min_freq] occurrences (numbered in first-
   occurrence order, so construction is deterministic), rewrite greedily.
   Returns the rewritten sequence or [None] when no digram qualifies. *)
let pair_round ~min_freq ~next_id left right s =
  let n = Array.length s in
  if n < 2 * min_freq then None
  else begin
    (* symbol ids fit comfortably in 31 bits, so a digram packs into
       one int — keeps the hash tables on the fast integer path; each
       table entry packs (count lsl 31) lor first_occurrence so one
       counting pass also yields the deterministic rule numbering *)
    let pack a b = (a lsl 31) lor b in
    let freq : (int, int ref) Hashtbl.t = Hashtbl.create 1024 in
    let i = ref 0 in
    while !i < n - 1 do
      let d = pack s.(!i) s.(!i + 1) in
      (match Hashtbl.find_opt freq d with
      | Some r -> r := !r + (1 lsl 31)
      | None -> Hashtbl.add freq d (ref ((1 lsl 31) lor !i)));
      if s.(!i) = s.(!i + 1) then i := !i + 2 else incr i
    done;
    let qualifying =
      Hashtbl.fold
        (fun d r acc ->
          if !r lsr 31 >= min_freq then (!r land ((1 lsl 31) - 1), d) :: acc
          else acc)
        freq []
    in
    let qualifying = List.sort compare qualifying in
    let chosen : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let id = ref next_id in
    List.iter
      (fun (_, d) ->
        Hashtbl.add chosen d !id;
        Grow.push left (d lsr 31);
        Grow.push right (d land ((1 lsl 31) - 1));
        incr id)
      qualifying;
    if Hashtbl.length chosen = 0 then None
    else begin
      let out = Grow.create () in
      let i = ref 0 in
      while !i < n do
        if
          !i < n - 1
          &&
          match Hashtbl.find_opt chosen (pack s.(!i) s.(!i + 1)) with
          | Some id ->
            Grow.push out id;
            true
          | None -> false
        then i := !i + 2
        else begin
          Grow.push out s.(!i);
          incr i
        end
      done;
      Some (Grow.to_array out)
    end
  end

let pack_iv ?width a =
  if Array.length a = 0 then Intvec.make 0 1 else Intvec.of_array ?width a

let build ?(min_freq = 4) ~tag_count ~leaf_tags syms =
  if min_freq < 2 then invalid_arg "Slp.build: min_freq must be >= 2";
  if tag_count < 1 then invalid_arg "Slp.build: tag_count must be >= 1";
  let nterm = 2 * tag_count in
  let n = Array.length syms in
  let e = ref 0 in
  Array.iter
    (fun s ->
      if s < 0 || s >= nterm then invalid_arg "Slp.build: symbol out of range";
      e := !e + (if s land 1 = 0 then 1 else -1);
      if !e < 0 then invalid_arg "Slp.build: unbalanced sequence")
    syms;
  if !e <> 0 then invalid_arg "Slp.build: unbalanced sequence";
  (* compress *)
  let gleft = Grow.create () and gright = Grow.create () in
  let cur = ref syms in
  let continue_ = ref (n > 0) in
  while !continue_ do
    let s = !cur in
    match pair_round ~min_freq ~next_id:(nterm + gleft.Grow.n) gleft gright s with
    | None -> continue_ := false
    | Some out ->
      cur := out;
      (* a round that shrinks the sequence by less than 0.5% is past
         the repetitive structure: stop so total work stays linear *)
      let shrink = Array.length s - Array.length out in
      if shrink * 200 < Array.length s then continue_ := false
  done;
  let left = Grow.to_array gleft and right = Grow.to_array gright in
  let nrules = Array.length left in
  (* bottom-up summaries: a rule only references earlier symbols *)
  let rlen = Array.make nrules 0
  and rexc = Array.make nrules 0
  and rmin = Array.make nrules 0
  and rmax = Array.make nrules 0
  and ropen = Array.make nrules 0
  and rdepth = Array.make nrules 0 in
  let rtags = Array.make nrules [||] and rcnts = Array.make nrules [||] in
  let len s = if s < nterm then 1 else rlen.(s - nterm) in
  let exc s = if s < nterm then (if s land 1 = 0 then 1 else -1) else rexc.(s - nterm) in
  let mn s = if s < nterm then exc s else rmin.(s - nterm) in
  let mx s = if s < nterm then exc s else rmax.(s - nterm) in
  let opn s = if s < nterm then 1 - (s land 1) else ropen.(s - nterm) in
  let dep s = if s < nterm then 0 else rdepth.(s - nterm) in
  let tags_of s =
    if s < nterm then
      if s land 1 = 0 then ([| s lsr 1 |], [| 1 |]) else ([||], [||])
    else (rtags.(s - nterm), rcnts.(s - nterm))
  in
  let merge (ta, ca) (tb, cb) =
    let la = Array.length ta and lb = Array.length tb in
    let mt = Array.make (la + lb) 0 and mc = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la || !j < lb do
      if !j >= lb || (!i < la && ta.(!i) < tb.(!j)) then begin
        mt.(!k) <- ta.(!i);
        mc.(!k) <- ca.(!i);
        incr i;
        incr k
      end
      else if !i >= la || tb.(!j) < ta.(!i) then begin
        mt.(!k) <- tb.(!j);
        mc.(!k) <- cb.(!j);
        incr j;
        incr k
      end
      else begin
        mt.(!k) <- ta.(!i);
        mc.(!k) <- ca.(!i) + cb.(!j);
        incr i;
        incr j;
        incr k
      end
    done;
    (Array.sub mt 0 !k, Array.sub mc 0 !k)
  in
  for r = 0 to nrules - 1 do
    let a = left.(r) and b = right.(r) in
    rlen.(r) <- len a + len b;
    rexc.(r) <- exc a + exc b;
    rmin.(r) <- min (mn a) (exc a + mn b);
    rmax.(r) <- max (mx a) (exc a + mx b);
    ropen.(r) <- opn a + opn b;
    rdepth.(r) <- 1 + max (dep a) (dep b);
    let ts, cs = merge (tags_of a) (tags_of b) in
    rtags.(r) <- ts;
    rcnts.(r) <- cs
  done;
  let seq = !cur in
  let nslots = Array.length seq in
  let nblocks = (nslots + cblock - 1) / cblock in
  (* checkpoints + per-block heap leaves + per-tag checkpoint counts,
     one cumulative walk over the slots *)
  let cpos = Array.make (nblocks + 1) 0
  and cexc = Array.make (nblocks + 1) 0
  and copen = Array.make (nblocks + 1) 0 in
  let bleaves =
    let rec go l = if l >= max 1 nblocks then l else go (2 * l) in
    go 1
  in
  let hmin = Array.make (2 * bleaves) max_int
  and hmax = Array.make (2 * bleaves) min_int in
  let tchk_tmp = Array.init tag_count (fun _ -> Array.make (nblocks + 1) 0) in
  let tcnt_run = Array.make tag_count 0 in
  let p = ref 0 and e = ref 0 and o = ref 0 in
  let depth = ref 0 in
  for k = 0 to nslots - 1 do
    if k mod cblock = 0 then begin
      let c = k / cblock in
      cpos.(c) <- !p;
      cexc.(c) <- !e;
      copen.(c) <- !o;
      for tg = 0 to tag_count - 1 do
        tchk_tmp.(tg).(c) <- tcnt_run.(tg)
      done
    end;
    let s = seq.(k) in
    let c = k / cblock in
    hmin.(bleaves + c) <- min hmin.(bleaves + c) (!e + mn s);
    hmax.(bleaves + c) <- max hmax.(bleaves + c) (!e + mx s);
    depth := max !depth (dep s);
    let ts, cs = tags_of s in
    Array.iteri (fun idx tg -> tcnt_run.(tg) <- tcnt_run.(tg) + cs.(idx)) ts;
    p := !p + len s;
    e := !e + exc s;
    o := !o + opn s
  done;
  cpos.(nblocks) <- !p;
  cexc.(nblocks) <- !e;
  copen.(nblocks) <- !o;
  for tg = 0 to tag_count - 1 do
    tchk_tmp.(tg).(nblocks) <- tcnt_run.(tg)
  done;
  for node = bleaves - 1 downto 1 do
    hmin.(node) <- min hmin.(2 * node) hmin.((2 * node) + 1);
    hmax.(node) <- max hmax.(2 * node) hmax.((2 * node) + 1)
  done;
  (* flatten the per-rule tag tables *)
  let total_tag_entries = Array.fold_left (fun acc a -> acc + Array.length a) 0 rtags in
  let roff = Array.make (nrules + 1) 0 in
  let rtag_flat = Array.make total_tag_entries 0
  and rcnt_flat = Array.make total_tag_entries 0 in
  let w = ref 0 in
  for r = 0 to nrules - 1 do
    roff.(r) <- !w;
    Array.iteri
      (fun idx tg ->
        rtag_flat.(!w + idx) <- tg;
        rcnt_flat.(!w + idx) <- rcnts.(r).(idx))
      rtags.(r);
    w := !w + Array.length rtags.(r)
  done;
  roff.(nrules) <- !w;
  {
    n;
    tcount = tag_count;
    nterm;
    left = pack_iv left;
    right = pack_iv right;
    rlen = pack_iv rlen;
    rexc_b = pack_iv (Array.map (fun v -> v + n) rexc);
    rmin_b = pack_iv (Array.map (fun v -> v + n) rmin);
    rmax_b = pack_iv (Array.map (fun v -> v + n) rmax);
    ropen = pack_iv ropen;
    roff = pack_iv roff;
    rtag_flat = pack_iv rtag_flat;
    rcnt_flat = pack_iv rcnt_flat;
    seq = pack_iv seq;
    cpos;
    cexc;
    copen;
    bleaves;
    hmin;
    hmax;
    tchk = Array.map pack_iv tchk_tmp;
    leaf_tags = Array.of_list (List.sort_uniq compare leaf_tags);
    depth = !depth;
  }

(* ------------------------------------------------------------------ *)
(* Sizes                                                                *)
(* ------------------------------------------------------------------ *)

let length t = t.n
let node_count t = t.n / 2
let tag_count t = t.tcount
let rule_count t = Intvec.length t.rlen
let slot_count t = nslots t
let depth_bound t = t.depth

let space_bits t =
  let iv = Intvec.space_bits in
  let a x = 64 * Array.length x in
  iv t.left + iv t.right + iv t.rlen + iv t.rexc_b + iv t.rmin_b + iv t.rmax_b
  + iv t.ropen + iv t.roff + iv t.rtag_flat + iv t.rcnt_flat + iv t.seq + a t.cpos
  + a t.cexc + a t.copen + a t.hmin + a t.hmax
  + Array.fold_left (fun acc v -> acc + iv v) 0 t.tchk
  + a t.leaf_tags + 512

(* ------------------------------------------------------------------ *)
(* Descent                                                              *)
(* ------------------------------------------------------------------ *)

(* Block containing expanded position [pos] (largest c with
   cpos.(c) <= pos); [pos] must be in [0, n). *)
let find_block t pos =
  let lo = ref 0 and hi = ref (nblocks t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.cpos.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo

(* Slot containing [pos]: scans the home block from its checkpoint.
   Returns (slot, start position, excess before, openings before). *)
let locate t pos =
  let c = find_block t pos in
  let k = ref (c * cblock)
  and p = ref t.cpos.(c)
  and e = ref t.cexc.(c)
  and o = ref t.copen.(c) in
  let continue_ = ref true in
  while !continue_ do
    let s = Intvec.get t.seq !k in
    let l = t_len t s in
    if !p + l <= pos then begin
      p := !p + l;
      e := !e + t_exc t s;
      o := !o + t_open t s;
      incr k
    end
    else continue_ := false
  done;
  (!k, !p, !e, !o)

(* Terminal at position [pos], with the absolute excess and opening
   count before it. *)
let descend t pos =
  if pos < 0 || pos >= t.n then invalid_arg "Slp: position out of range";
  let k, start, e0, o0 = locate t pos in
  let s = ref (Intvec.get t.seq k)
  and off = ref (pos - start)
  and e = ref e0
  and o = ref o0 in
  while !s >= t.nterm do
    let r = !s - t.nterm in
    let a = Intvec.get t.left r in
    let la = t_len t a in
    if !off < la then s := a
    else begin
      off := !off - la;
      e := !e + t_exc t a;
      o := !o + t_open t a;
      s := Intvec.get t.right r
    end
  done;
  (!s, !e, !o)

let is_open t i =
  let s, _, _ = descend t i in
  s land 1 = 0

let tag t i =
  let s, _, _ = descend t i in
  s lsr 1

(* Terminals of [lo, hi) in order: one descent to the slot holding
   [lo], then each symbol is expanded once, skipping the subtrees that
   fall outside the range. *)
let iter_range t lo hi f =
  if lo < 0 || hi > t.n then invalid_arg "Slp.iter_range: range out of bounds";
  let rec expand s p =
    if s < t.nterm then (if p >= lo then f s)
    else begin
      let r = s - t.nterm in
      let a = Intvec.get t.left r in
      let pa = p + t_len t a in
      if pa > lo then expand a p;
      if pa < hi then expand (Intvec.get t.right r) pa
    end
  in
  if lo < hi then begin
    let k0, p0, _, _ = locate t lo in
    let k = ref k0 and p = ref p0 in
    while !p < hi do
      let s = Intvec.get t.seq !k in
      expand s !p;
      p := !p + t_len t s;
      incr k
    done
  end

let excess t i =
  if i < 0 then 0
  else begin
    let s, e, _ = descend t i in
    e + (if s land 1 = 0 then 1 else -1)
  end

let preorder t i =
  let _, _, o = descend t i in
  o

(* ------------------------------------------------------------------ *)
(* Excess searches                                                      *)
(* ------------------------------------------------------------------ *)

let contains t node v = t.hmin.(node) <= v && v <= t.hmax.(node)

(* Leftmost position inside the expansion of [s] (starting at absolute
   position [pos], absolute excess [base] before it) whose prefix
   excess equals [v]; the caller guarantees containment, which descends
   because prefix excess is a ±1 walk attaining every value between its
   min and max. *)
let rec down_left t v s base pos =
  if s < t.nterm then pos
  else begin
    let r = s - t.nterm in
    let a = Intvec.get t.left r in
    if v >= base + t_min t a && v <= base + t_max t a then down_left t v a base pos
    else
      down_left t v (Intvec.get t.right r) (base + t_exc t a) (pos + t_len t a)
  end

(* Rightmost such position. *)
let rec down_right t v s base pos =
  if s < t.nterm then pos
  else begin
    let r = s - t.nterm in
    let a = Intvec.get t.left r and b = Intvec.get t.right r in
    let ea = base + t_exc t a in
    if v >= ea + t_min t b && v <= ea + t_max t b then
      down_right t v b ea (pos + t_len t a)
    else down_right t v a base pos
  end

(* Leftmost position with prefix excess [v] in slots [k, kend) given
   the absolute excess [e] and position [p] before slot [k]; -1 when
   the range does not attain it. *)
let scan_right t v k kend e p =
  let k = ref k and e = ref e and p = ref p in
  let found = ref (-1) in
  while !found < 0 && !k < kend do
    let s = Intvec.get t.seq !k in
    if v >= !e + t_min t s && v <= !e + t_max t s then
      found := down_left t v s !e !p
    else begin
      e := !e + t_exc t s;
      p := !p + t_len t s;
      incr k
    end
  done;
  !found

(* Rightmost such position in slots [k, kend); scans forward and keeps
   the last containing slot. *)
let scan_left t v k kend e p =
  let k = ref k and e = ref e and p = ref p in
  let best_s = ref (-1) and best_e = ref 0 and best_p = ref 0 in
  while !k < kend do
    let s = Intvec.get t.seq !k in
    if v >= !e + t_min t s && v <= !e + t_max t s then begin
      best_s := s;
      best_e := !e;
      best_p := !p
    end;
    e := !e + t_exc t s;
    p := !p + t_len t s;
    incr k
  done;
  if !best_s < 0 then -1 else down_right t v !best_s !best_e !best_p

(* Smallest j > i with excess(j) = v, or -1; [i >= -1]. *)
let fwd t i v =
  if t.n = 0 then -1
  else begin
    (* cover (i, end of i's slot) with pending right segments, then the
       rest of the home block, then the block heap *)
    let k, home =
      if i < 0 then (-1, 0)
      else begin
        let k, start, e0, _ = locate t i in
        let s = ref (Intvec.get t.seq k)
        and off = ref (i - start)
        and e = ref e0
        and p = ref start in
        let pending = ref [] in
        while !s >= t.nterm do
          let r = !s - t.nterm in
          let a = Intvec.get t.left r and b = Intvec.get t.right r in
          let la = t_len t a in
          if !off < la then begin
            pending := (b, !e + t_exc t a, !p + la) :: !pending;
            s := a
          end
          else begin
            off := !off - la;
            e := !e + t_exc t a;
            p := !p + la;
            s := b
          end
        done;
        let rec try_pending = function
          | (ps, pe, pp) :: rest ->
            if v >= pe + t_min t ps && v <= pe + t_max t ps then
              down_left t v ps pe pp
            else try_pending rest
          | [] -> -1
        in
        (k, try_pending !pending)
      end
    in
    if home >= 0 then home
    else begin
      let c = if k < 0 then 0 else k / cblock in
      (* rest of the home block: slots right of k *)
      let k1 = k + 1 in
      let e1, p1 =
        (* cumulative summaries at slot k1, rebuilt from the checkpoint *)
        let kk = ref (c * cblock) and e = ref t.cexc.(c) and p = ref t.cpos.(c) in
        while !kk < k1 do
          let s = Intvec.get t.seq !kk in
          e := !e + t_exc t s;
          p := !p + t_len t s;
          incr kk
        done;
        (!e, !p)
      in
      let kend = min (nslots t) ((c + 1) * cblock) in
      let local = scan_right t v k1 kend e1 p1 in
      if local >= 0 then local
      else begin
        (* climb to the nearest block to the right containing v *)
        let node = ref (t.bleaves + c) in
        let found = ref (-1) in
        while !found < 0 && !node > 1 do
          if !node land 1 = 0 && contains t (!node + 1) v then found := !node + 1
          else node := !node / 2
        done;
        if !found < 0 then -1
        else begin
          let node = ref !found in
          while !node < t.bleaves do
            node := if contains t (2 * !node) v then 2 * !node else (2 * !node) + 1
          done;
          let b = !node - t.bleaves in
          scan_right t v (b * cblock)
            (min (nslots t) ((b + 1) * cblock))
            t.cexc.(b) t.cpos.(b)
        end
      end
    end
  end

(* Largest j < i with excess(j) = v; -1 for the virtual position (only
   when v = 0), min_int for none; [i] in [0, n). *)
let bwd t i v =
  let none = if v = 0 then -1 else min_int in
  if t.n = 0 || i <= 0 then none
  else begin
    let k, start, e0, _ = locate t i in
    (* within-slot part: segments covering [start, i), nearest first *)
    let s = ref (Intvec.get t.seq k)
    and off = ref (i - start)
    and e = ref e0
    and p = ref start in
    let pending = ref [] in
    while !s >= t.nterm do
      let r = !s - t.nterm in
      let a = Intvec.get t.left r and b = Intvec.get t.right r in
      let la = t_len t a in
      if !off < la then s := a
      else begin
        pending := (a, !e, !p) :: !pending;
        off := !off - la;
        e := !e + t_exc t a;
        p := !p + la;
        s := b
      end
    done;
    let rec try_pending = function
      | (ps, pe, pp) :: rest ->
        if v >= pe + t_min t ps && v <= pe + t_max t ps then
          down_right t v ps pe pp
        else try_pending rest
      | [] -> -1
    in
    let home = try_pending !pending in
    if home >= 0 then home
    else begin
      let c = k / cblock in
      (* earlier slots of the home block *)
      let local = scan_left t v (c * cblock) k t.cexc.(c) t.cpos.(c) in
      if local >= 0 then local
      else begin
        (* climb to the nearest block to the left containing v *)
        let node = ref (t.bleaves + c) in
        let found = ref (-1) in
        while !found < 0 && !node > 1 do
          if !node land 1 = 1 && contains t (!node - 1) v then found := !node - 1
          else node := !node / 2
        done;
        if !found < 0 then none
        else begin
          let node = ref !found in
          while !node < t.bleaves do
            node := if contains t ((2 * !node) + 1) v then (2 * !node) + 1 else 2 * !node
          done;
          let b = !node - t.bleaves in
          let r =
            scan_left t v (b * cblock)
              (min (nslots t) ((b + 1) * cblock))
              t.cexc.(b) t.cpos.(b)
          in
          if r >= 0 then r else none
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Tree operations                                                      *)
(* ------------------------------------------------------------------ *)

let close t i =
  let s, e, _ = descend t i in
  if s land 1 <> 0 then invalid_arg "Slp.close: not an opening parenthesis";
  (* excess at i is e + 1; the match is the first j > i with excess e *)
  fwd t i e

let open_ t i =
  let s, e, _ = descend t i in
  if s land 1 = 0 then invalid_arg "Slp.open_: not a closing parenthesis";
  let p = bwd t i (e - 1) in
  if p = min_int then invalid_arg "Slp.open_: unbalanced" else p + 1

let enclose t i =
  if i = 0 then -1
  else begin
    let p = bwd t i (excess t i - 2) in
    if p = min_int then -1 else p + 1
  end

let root _ = 0

let node_of_preorder t p =
  if p < 0 || p >= t.n / 2 then invalid_arg "Slp.node_of_preorder";
  (* block, then slot, then rule descent — by opening count *)
  let lo = ref 0 and hi = ref (nblocks t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.copen.(mid) <= p then lo := mid else hi := mid - 1
  done;
  let c = !lo in
  let k = ref (c * cblock)
  and o = ref t.copen.(c)
  and pos = ref t.cpos.(c) in
  let continue_ = ref true in
  while !continue_ do
    let s = Intvec.get t.seq !k in
    let os = t_open t s in
    if !o + os <= p then begin
      o := !o + os;
      pos := !pos + t_len t s;
      incr k
    end
    else continue_ := false
  done;
  let s = ref (Intvec.get t.seq !k)
  and rem = ref (p - !o) in
  while !s >= t.nterm do
    let r = !s - t.nterm in
    let a = Intvec.get t.left r in
    let oa = t_open t a in
    if !rem < oa then s := a
    else begin
      rem := !rem - oa;
      pos := !pos + t_len t a;
      s := Intvec.get t.right r
    end
  done;
  !pos

let subtree_size t i = (close t i - i + 1) / 2
let is_ancestor t x y = x <= y && y <= close t x
let is_leaf t i = i + 1 >= t.n || not (is_open t (i + 1))
let first_child t i = if is_leaf t i then -1 else i + 1

let next_sibling t i =
  let c = close t i in
  if c + 1 < t.n && is_open t (c + 1) then c + 1 else -1

let parent t i = enclose t i
let depth t i = excess t i

(* ------------------------------------------------------------------ *)
(* Tag operations                                                       *)
(* ------------------------------------------------------------------ *)

let count_tag t tg = Intvec.get t.tchk.(tg) (nblocks t)

(* openings of [tg] among the first [off] positions of [s]'s expansion *)
let rec in_slot_rank t tg s off =
  if off <= 0 then 0
  else if off >= t_len t s then t_cnt t s tg
  else begin
    (* 0 < off < len, so [s] is a nonterminal *)
    let r = s - t.nterm in
    let a = Intvec.get t.left r in
    let la = t_len t a in
    if off <= la then in_slot_rank t tg a off
    else t_cnt t a tg + in_slot_rank t tg (Intvec.get t.right r) (off - la)
  end

let rank_tag t tg pos =
  if pos <= 0 then 0
  else if pos >= t.n then count_tag t tg
  else begin
    let c = find_block t pos in
    let k = ref (c * cblock)
    and p = ref t.cpos.(c)
    and acc = ref (Intvec.get t.tchk.(tg) c) in
    let continue_ = ref true in
    while !continue_ do
      let s = Intvec.get t.seq !k in
      let l = t_len t s in
      if !p + l <= pos then begin
        acc := !acc + t_cnt t s tg;
        p := !p + l;
        incr k
      end
      else continue_ := false
    done;
    !acc + in_slot_rank t tg (Intvec.get t.seq !k) (pos - !p)
  end

let select_tag t tg j =
  if j < 0 || j >= count_tag t tg then invalid_arg "Slp.select_tag";
  let chk = t.tchk.(tg) in
  (* largest block c with chk.(c) <= j (chk.(0) = 0) *)
  let lo = ref 0 and hi = ref (nblocks t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Intvec.get chk mid <= j then lo := mid else hi := mid - 1
  done;
  let c = !lo in
  let k = ref (c * cblock)
  and pos = ref t.cpos.(c)
  and rem = ref (j - Intvec.get chk c) in
  let continue_ = ref true in
  while !continue_ do
    let s = Intvec.get t.seq !k in
    let cs = t_cnt t s tg in
    if !rem >= cs then begin
      rem := !rem - cs;
      pos := !pos + t_len t s;
      incr k
    end
    else continue_ := false
  done;
  let s = ref (Intvec.get t.seq !k) in
  while !s >= t.nterm do
    let r = !s - t.nterm in
    let a = Intvec.get t.left r in
    let ca = t_cnt t a tg in
    if !rem < ca then s := a
    else begin
      rem := !rem - ca;
      pos := !pos + t_len t a;
      s := Intvec.get t.right r
    end
  done;
  !pos

let next_tag t tg i =
  let r = rank_tag t tg (max i 0) in
  if r >= count_tag t tg then -1 else select_tag t tg r

let prev_tag t tg i =
  let r = rank_tag t tg (min i t.n) in
  if r = 0 then -1 else select_tag t tg (r - 1)

let subtree_tags t x tg =
  let c = close t x in
  rank_tag t tg (c + 1) - rank_tag t tg x

let tagged_desc t x tg =
  let c = close t x in
  let p = next_tag t tg (x + 1) in
  if p >= 0 && p < c then p else -1

let tagged_foll t x tg =
  let c = close t x in
  next_tag t tg (c + 1)

let tagged_next t i tg = next_tag t tg i

let tagged_prec t x tg =
  let rec go p =
    match prev_tag t tg p with
    | -1 -> -1
    | q -> if is_ancestor t q x then go q else q
  in
  go x

(* ------------------------------------------------------------------ *)
(* Leaf enumeration                                                     *)
(* ------------------------------------------------------------------ *)

let leaf_rank t pos =
  Array.fold_left (fun acc tg -> acc + rank_tag t tg pos) 0 t.leaf_tags

let leaf_count t =
  Array.fold_left (fun acc tg -> acc + count_tag t tg) 0 t.leaf_tags

let leaf_select t d =
  if d < 0 || d >= leaf_count t then invalid_arg "Slp.leaf_select";
  (* smallest p with leaf_rank (p + 1) = d + 1 is the d-th leaf *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if leaf_rank t (mid + 1) >= d + 1 then hi := mid else lo := mid + 1
  done;
  !lo
