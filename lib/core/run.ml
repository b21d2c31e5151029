open Sxsi_xml
open Sxsi_tree
open Sxsi_auto

type stats = {
  mutable visited : int;
  mutable marked : int;
  mutable jumps : int;
  mutable memo_hits : int;
}

let fresh_stats () = { visited = 0; marked = 0; jumps = 0; memo_hits = 0 }

let copy_stats s =
  { visited = s.visited; marked = s.marked; jumps = s.jumps; memo_hits = s.memo_hits }

let stats_assoc s =
  [
    ("visited", s.visited);
    ("marked", s.marked);
    ("jumps", s.jumps);
    ("memo_hits", s.memo_hits);
  ]

type config = {
  enable_jump : bool;
  enable_memo : bool;
  enable_early : bool;
  stats : stats;
}

let default_config () =
  { enable_jump = true; enable_memo = true; enable_early = false; stats = fresh_stats () }

type 'r sem = {
  empty : 'r;
  mark : int -> 'r;
  cat : 'r -> 'r -> 'r;
  range : int list -> int -> int -> 'r;
}

let count_sem ti =
  {
    empty = 0;
    mark = (fun _ -> 1);
    cat = ( + );
    range = (fun tags lo hi -> Marks.range_count ti tags lo hi);
  }

let marks_sem =
  {
    empty = Marks.Empty;
    mark = (fun x -> Marks.One x);
    cat =
      (fun a b ->
        match (a, b) with
        | Marks.Empty, m | m, Marks.Empty -> m
        | _ -> Marks.Cat (a, b));
    range = (fun tags lo hi -> Marks.Tagged_range (tags, lo, hi));
  }

type custom_impl = {
  cp_match : string -> bool;
  cp_texts : (unit -> int list) option;
}

let simple_fun f = { cp_match = f; cp_texts = None }

type text_funs = string -> custom_impl option

(* ------------------------------------------------------------------ *)
(* Built-in and custom predicate evaluation (§6.6 step 2): when the    *)
(* candidate node's value is a single text, one global index query     *)
(* answers every node-level test by membership; otherwise fall back    *)
(* to comparing the string-value.                                      *)
(* ------------------------------------------------------------------ *)

(* A value test fed the string-value piece by piece (the texts of a
   mixed-content node) and compared in place, so no value is ever
   concatenated or copied.  [contains] runs a Knuth-Morris-Pratt
   automaton, which finds a literal straddling two texts; [ends-with]
   keeps the last [m] characters in a ring; the other operators
   compare against the literal position by position.  One test is
   allocated per predicate and reused across nodes. *)
type value_test = {
  vt_op : Sxsi_xpath.Ast.value_op;
  vt_lit : string;
  vt_fail : int array;    (* KMP: longest proper border of lit[0..k] *)
  vt_ring : Bytes.t;      (* ends-with: the last [m] characters fed *)
  mutable vt_len : int;   (* characters fed so far *)
  mutable vt_k : int;     (* contains: length of the matched prefix *)
  mutable vt_cmp : int;   (* sign of value vs literal over the first
                             [vt_len] characters; 2 once the value is
                             longer than an equal literal *)
  vt_feed : string -> unit;  (* [feed] on this test, built once *)
}

exception Decided

(* Feed one piece; raises [Decided] once no further piece can change
   the outcome. *)
let feed vt s =
  let open Sxsi_xpath.Ast in
  let lit = vt.vt_lit in
  let m = String.length lit and n = String.length s in
  match vt.vt_op with
  | Contains ->
    if m = 0 then raise_notrace Decided;
    let fail = vt.vt_fail in
    let k = ref vt.vt_k in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      while !k > 0 && String.unsafe_get lit !k <> c do
        k := Array.unsafe_get fail (!k - 1)
      done;
      if String.unsafe_get lit !k = c then begin
        incr k;
        if !k = m then begin
          vt.vt_k <- m;
          raise_notrace Decided
        end
      end
    done;
    vt.vt_k <- !k;
    vt.vt_len <- vt.vt_len + n
  | Ends_with ->
    if m > 0 then
      for i = 0 to n - 1 do
        Bytes.unsafe_set vt.vt_ring ((vt.vt_len + i) mod m) (String.unsafe_get s i)
      done;
    vt.vt_len <- vt.vt_len + n
  | Eq | Starts_with | Lt | Le | Gt | Ge ->
    let base = vt.vt_len in
    for i = 0 to n - 1 do
      let pos = base + i in
      if pos >= m then begin
        vt.vt_cmp <- 2;
        raise_notrace Decided
      end;
      let c = String.unsafe_get s i and l = String.unsafe_get lit pos in
      if c <> l then begin
        vt.vt_cmp <- (if c < l then -1 else 1);
        raise_notrace Decided
      end
    done;
    vt.vt_len <- base + n

let value_test op lit =
  let open Sxsi_xpath.Ast in
  let m = String.length lit in
  let fail =
    match op with
    | Contains when m > 0 ->
      let f = Array.make m 0 in
      let k = ref 0 in
      for i = 1 to m - 1 do
        while !k > 0 && lit.[!k] <> lit.[i] do
          k := f.(!k - 1)
        done;
        if lit.[!k] = lit.[i] then incr k;
        f.(i) <- !k
      done;
      f
    | _ -> [||]
  in
  let ring = match op with Ends_with -> Bytes.create m | _ -> Bytes.empty in
  let rec vt =
    {
      vt_op = op;
      vt_lit = lit;
      vt_fail = fail;
      vt_ring = ring;
      vt_len = 0;
      vt_k = 0;
      vt_cmp = 0;
      vt_feed = (fun s -> feed vt s);
    }
  in
  vt

(* the last [m] characters fed equal the literal from position [i] on *)
let rec ring_matches vt i =
  let m = String.length vt.vt_lit in
  i >= m
  || Bytes.unsafe_get vt.vt_ring ((vt.vt_len + i) mod m) = String.unsafe_get vt.vt_lit i
     && ring_matches vt (i + 1)

let reset vt =
  vt.vt_len <- 0;
  vt.vt_k <- 0;
  vt.vt_cmp <- 0

(* The test's verdict on everything fed since the last [reset]. *)
let outcome vt =
  let open Sxsi_xpath.Ast in
  let m = String.length vt.vt_lit in
  let cmp = if vt.vt_cmp <> 0 then vt.vt_cmp else compare vt.vt_len m in
  match vt.vt_op with
  | Contains -> m = 0 || vt.vt_k = m
  | Ends_with -> vt.vt_len >= m && ring_matches vt 0
  | Starts_with -> vt.vt_cmp = 2 || cmp = 0
  | Eq -> cmp = 0
  | Lt -> cmp < 0
  | Le -> cmp <= 0
  | Gt -> cmp > 0
  | Ge -> cmp >= 0

let value_matches op value lit =
  let vt = value_test op lit in
  (try feed vt value with Decided -> ());
  outcome vt

let rec text_set_of_pred doc funs = function
  | Automaton.Text_pred (op, lit) ->
    let tc = Document.text doc in
    let open Sxsi_xpath.Ast in
    let ids =
      match op with
      | Eq -> Sxsi_text.Text_collection.equals tc lit
      | Contains -> Sxsi_text.Text_collection.contains tc lit
      | Starts_with -> Sxsi_text.Text_collection.starts_with tc lit
      | Ends_with -> Sxsi_text.Text_collection.ends_with tc lit
      | Lt -> Sxsi_text.Text_collection.less_than tc lit
      | Le -> Sxsi_text.Text_collection.less_equal tc lit
      | Gt -> Sxsi_text.Text_collection.greater_than tc lit
      | Ge -> Sxsi_text.Text_collection.greater_equal tc lit
    in
    Array.of_list ids
  | Automaton.Custom_pred (name, arg) -> begin
    let impl = custom_fn funs name arg in
    match impl.cp_texts with
    | Some indexed -> Array.of_list (indexed ())
    | None ->
      let acc = ref [] in
      for d = Document.text_count doc - 1 downto 0 do
        if impl.cp_match (Document.get_text doc d) then acc := d :: !acc
      done;
      Array.of_list !acc
  end

and custom_fn funs name arg =
  match funs (name ^ ":" ^ arg) with
  | Some f -> f
  | None -> begin
    match funs name with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Run: unknown predicate %s" name)
  end

(* any element of the sorted array in [lo, hi)? *)
let mem_range arr lo hi =
  let n = Array.length arr in
  let l = ref 0 and r = ref n in
  while !l < !r do
    let m = (!l + !r) / 2 in
    if arr.(m) < lo then l := m + 1 else r := m
  done;
  !l < n && arr.(!l) < hi

let make_pred_eval doc (auto : Automaton.t) funs =
  let n = Array.length auto.Automaton.preds in
  let sets : int array option array = Array.make n None in
  let get_set i =
    match sets.(i) with
    | Some s -> s
    | None ->
      let s = text_set_of_pred doc funs auto.Automaton.preds.(i) in
      sets.(i) <- Some s;
      s
  in
  let tests : value_test option array = Array.make n None in
  let get_test i op lit =
    match tests.(i) with
    | Some vt -> vt
    | None ->
      let vt = value_test op lit in
      tests.(i) <- Some vt;
      vt
  in
  fun i x ->
    let descr = auto.Automaton.preds.(i) in
    if Document.pcdata_only doc x then begin
      let lo, hi = Document.text_range doc x in
      if hi <= lo then begin
        match descr with
        | Automaton.Text_pred (op, lit) ->
          let vt = get_test i op lit in
          reset vt;
          outcome vt
        | Automaton.Custom_pred (name, arg) -> (custom_fn funs name arg).cp_match ""
      end
      else begin
        (* an empty literal matches every non-empty text for the
           substring-family operators, but the index query returns
           nothing: answer directly *)
        match descr with
        | Automaton.Text_pred ((Contains | Starts_with | Ends_with), "") -> true
        | Automaton.Text_pred _ | Automaton.Custom_pred _ ->
          mem_range (get_set i) lo hi
      end
    end
    else begin
      match descr with
      | Automaton.Text_pred (op, lit) ->
        let vt = get_test i op lit in
        reset vt;
        (try Document.iter_string_value doc x vt.vt_feed with Decided -> ());
        outcome vt
      | Automaton.Custom_pred (name, arg) ->
        (custom_fn funs name arg).cp_match (Document.string_value doc x)
    end

(* ------------------------------------------------------------------ *)
(* The run function                                                     *)
(* ------------------------------------------------------------------ *)

type analysis = {
  a_phis : (int * Formula.t) array;   (* surviving state, combined formula *)
  a_q1 : Stateset.t;
  a_q2 : Stateset.t;
}

(* How [eval] shortcuts a singleton state set instead of simulating
   the first-child/next-sibling recursion. *)
type shortcut =
  | Collect               (* §5.5.3-4: the whole tagged range at once *)
  | Region of int array   (* a recursive scan over its guard tag (§5.4.1)
                             or over an optimizer jump set *)
  | Sibling of int array  (* a child/following-sibling scan over a jump set *)

(* A scanning state's shortcut, decided once per run.
   [sp_down1]/[sp_down2] are the match formula's down1/down2 state
   sets, hash-consed here so the scan loops never take the [Stateset]
   table's lock per probe; [sp_slot] numbers the plan for the scoping
   cache. *)
type scan_plan = {
  sp_state : int;
  sp_info : Automaton.scan_info;
  sp_kind : shortcut;
  sp_down1 : Stateset.t;
  sp_down2 : Stateset.t;
  sp_slot : int;
}

let run ?budget ?config ?(funs = fun _ -> None) sem (auto : Automaton.t) =
  let config = match config with Some c -> c | None -> default_config () in
  let stats = config.stats in
  (* One step charged per node visited (scan or simulation); the check
     is a single atomic increment, with the deadline read sampled —
     see [Sxsi_qos.Budget]. *)
  let bcheck =
    match budget with
    | None -> fun () -> ()
    | Some b -> fun () -> Sxsi_qos.Budget.check b
  in
  let doc = auto.Automaton.doc in
  let bp = Document.tree doc in
  let ti = Document.tree doc in
  let rel = Document.rel doc in
  let tag_count = Document.tag_count doc in
  (* A merged cursor over the occurrences of a jump set: [next p] is
     the first occurrence >= p of any tag in [tags], or -1.  Per-tag
     candidates are cached and refreshed lazily, so a whole scan costs
     one [tagged_next] per occurrence consumed plus one per tag it
     holds — the single-tag jumping of §5.4.1, generalized.  Calls must
     have non-decreasing [p] (scans only move forward). *)
  let frontier tags =
    let n = Array.length tags in
    if n = 1 then begin
      let t = Array.unsafe_get tags 0 in
      fun p -> Tree_backend.tagged_next ti p t
    end
    else begin
      let cand = Array.make n min_int in
      fun p ->
        let best = ref max_int in
        for i = 0 to n - 1 do
          let c = Array.unsafe_get cand i in
          let c =
            if c < p then begin
              let nx = Tree_backend.tagged_next ti p (Array.unsafe_get tags i) in
              let nx = if nx < 0 then max_int else nx in
              Array.unsafe_set cand i nx;
              nx
            end
            else c
          in
          if c < !best then best := c
        done;
        if !best = max_int then -1 else !best
    end
  in
  let plans : (int, scan_plan) Hashtbl.t = Hashtbl.create 16 in
  if config.enable_jump then
    Hashtbl.iter
      (fun q si ->
        let kind =
          match si with
          | { Automaton.scan_recursive = true; scan_collect = true; _ } -> Some Collect
          | { Automaton.scan_guard = Formula.Tag tag; scan_recursive = true; _ } ->
            Some (Region [| tag |])
          | _ -> begin
            (* an optimized automaton: its jump set lists exactly the
               tags that can fire this state's match, so the scan can
               be driven by tag jumps even for multi-tag guards ([*],
               [node()], [@*]) and for sibling (non-recursive) scans *)
            match Automaton.jump_set auto q with
            | Some tags when si.Automaton.scan_recursive -> Some (Region tags)
            | Some tags -> Some (Sibling tags)
            | None -> None
          end
        in
        match kind with
        | None -> ()
        | Some kind ->
          let mp = si.Automaton.scan_match in
          Hashtbl.replace plans q
            {
              sp_state = q;
              sp_info = si;
              sp_kind = kind;
              sp_down1 = Stateset.of_list mp.Formula.down1;
              sp_down2 = Stateset.of_list mp.Formula.down2;
              sp_slot = Hashtbl.length plans;
            })
      auto.Automaton.scan;
  let pred_eval = make_pred_eval doc auto funs in
  (* per-state-set arrays indexed by tag: one pointer chase per visit
     once warm (the "just-in-time compilation" tables of §5.5.2) *)
  let memo : (int, analysis option array) Hashtbl.t = Hashtbl.create 16 in
  let compute_analysis qtd tag =
    let phis =
      List.filter_map
        (fun q ->
          let phi = Automaton.matching_phi auto q tag in
          if phi == Formula.fls then None else Some (q, phi))
        (Stateset.to_list qtd)
    in
    {
      a_phis = Array.of_list phis;
      a_q1 = Stateset.of_list (List.concat_map (fun (_, p) -> p.Formula.down1) phis);
      a_q2 = Stateset.of_list (List.concat_map (fun (_, p) -> p.Formula.down2) phis);
    }
  in
  let analyse qtd tag =
    if not config.enable_memo then compute_analysis qtd tag
    else begin
      let arr =
        match Hashtbl.find_opt memo qtd.Stateset.id with
        | Some arr -> arr
        | None ->
          let arr = Array.make tag_count None in
          Hashtbl.add memo qtd.Stateset.id arr;
          arr
      in
      match Array.unsafe_get arr tag with
      | Some a ->
        stats.memo_hits <- stats.memo_hits + 1;
        a
      | None ->
        let a = compute_analysis qtd tag in
        arr.(tag) <- Some a;
        a
    end
  in
  (* A plan's jump set restricted, by the §5.5.6 tables, to the tags
     that can stand in [relation] to a [rtag]-tagged node: a recursive
     scan over the descendants of [rtag] needs only Desc(rtag), a
     sibling scan under a [rtag] parent only Child(rtag).  Cached per
     (plan, tag); a negative [rtag] (region tag unknown) leaves the set
     whole. *)
  let scoped = Array.make (Hashtbl.length plans) [||] in
  let scope sp relation tags rtag =
    if rtag < 0 then tags
    else begin
      let row =
        match scoped.(sp.sp_slot) with
        | [||] ->
          let row = Array.make tag_count None in
          scoped.(sp.sp_slot) <- row;
          row
        | row -> row
      in
      match Array.unsafe_get row rtag with
      | Some s -> s
      | None ->
        let s =
          Array.of_list
            (List.filter (Tag_rel.mem rel relation rtag) (Array.to_list tags))
        in
        row.(rtag) <- Some s;
        s
    end
  in
  let bottom_cache : (int, (int * 'a) list) Hashtbl.t = Hashtbl.create 16 in
  let bottom qtd =
    match Hashtbl.find_opt bottom_cache qtd.Stateset.id with
    | Some r -> r
    | None ->
      let r =
        List.filter_map
          (fun q -> if Automaton.is_bottom auto q then Some (q, sem.empty) else None)
          (Stateset.to_list qtd)
      in
      Hashtbl.add bottom_cache qtd.Stateset.id r;
      r
  in
  let lookup res q =
    match List.assoc_opt q res with
    | Some m -> (true, m)
    | None -> (false, sem.empty)
  in
  (* The result of a scan that found no match position. *)
  let no_match sp =
    if sp.sp_info.Automaton.scan_marking then [ (sp.sp_state, sem.empty) ] else []
  in
  (* [eval x qtd limit rt] runs [qtd] over the region [x, limit); [rt]
     is the tag of a node whose strict descendants cover the region (a
     first-child call passes the current node's tag, a next-sibling
     call keeps its caller's), or -1 at the root. *)
  let rec eval x qtd limit rt =
    if Stateset.is_empty qtd then []
    else if x < 0 || x >= limit then bottom qtd
    else begin
      match Stateset.singleton qtd with
      | None -> visit x qtd limit rt
      | Some q -> begin
        match Hashtbl.find_opt plans q with
        | None -> visit x qtd limit rt
        | Some sp -> begin
          match sp.sp_kind with
          | Collect ->
            stats.jumps <- stats.jumps + 1;
            [ (q, sem.range sp.sp_info.Automaton.scan_tags x limit) ]
          | Region tags -> begin
            match scope sp Tag_rel.Descendant tags rt with
            | [||] -> no_match sp
            | tags ->
              (* a single tag is its own guard: no tag read per position *)
              let gtag = if Array.length tags = 1 then tags.(0) else -1 in
              scan_region sp x limit rt ~gtag ~next:(frontier tags)
          end
          | Sibling tags -> sib_scan sp tags x limit
        end
      end
    end
  (* A single recursive scanning state over the region [x, limit):
     instead of simulating the first-child/next-sibling recursion, jump
     from one [tag] occurrence to the next (§5.4.1).  The matches in
     preorder are exactly the region's matches, so marks concatenate in
     document order; for drop-down1 scans a successful match skips its
     whole subtree, and existence scans stop at the first success. *)
  and scan_region sp x limit rt ~gtag ~next =
    stats.jumps <- stats.jumps + 1;
    let si = sp.sp_info in
    let rec loop p acc found =
      let p = next p in
      if p < 0 || p >= limit then (acc, found)
      else begin
        bcheck ();
        stats.visited <- stats.visited + 1;
        let tag = if gtag >= 0 then gtag else Tree_backend.tag ti p in
        let b, m = eval_match sp p tag limit rt in
        if si.Automaton.scan_marking then begin
          let acc = if b then sem.cat acc m else acc in
          let next = if b && si.Automaton.scan_drop then Tree_backend.close bp p else p + 1 in
          loop next acc true
        end
        else if b then (acc, true)
        else loop (p + 1) acc found
      end
    in
    let marks, found = loop x sem.empty false in
    if si.Automaton.scan_marking then [ (sp.sp_state, marks) ]
    else if found then [ (sp.sp_state, sem.empty) ]
    else []
  (* A single non-recursive scanning state over the sibling chain
     starting at [x] (the child:: and following-sibling:: steps):
     jump between occurrences of the jump set instead of walking
     sibling by sibling.  An occurrence that is a direct sibling is a
     match candidate; one nested deeper lies inside some sibling's
     subtree, which this scan can never match — resume past that
     subtree.  After a candidate the scan resumes at the next sibling
     (the continuation moves down2 only), so every probe either
     decides a sibling or discards one whole sibling; on top of those
     probes the frontier pays one [tagged_next] per tag it holds,
     which is why the set is first scoped to the tags the parent can
     have as children.  Matches arrive in document order, so marks
     concatenate exactly as the walk's would; existence scans stop at
     the first success. *)
  and sib_scan sp tags x limit =
    let si = sp.sp_info in
    let par = Tree_backend.parent bp x in
    let ptag = if par < 0 then -1 else Tree_backend.tag ti par in
    match scope sp Tag_rel.Child tags ptag with
    | [||] -> no_match sp
    | tags ->
      stats.jumps <- stats.jumps + 1;
      let bound = if par < 0 then limit else min limit (Tree_backend.close bp par) in
      let next = frontier tags in
      (* the sibling of the chain whose subtree contains [p] *)
      let rec anchor p =
        let pr = Tree_backend.parent bp p in
        if pr = par then p else anchor pr
      in
      let rec loop p acc found =
        let p = next p in
        if p < 0 || p >= bound then (acc, found)
        else begin
          bcheck ();
          stats.visited <- stats.visited + 1;
          if Tree_backend.parent bp p <> par then
            loop (Tree_backend.close bp (anchor p) + 1) acc found
          else begin
            let b, m = eval_match sp p (Tree_backend.tag ti p) limit ptag in
            let after = Tree_backend.close bp p + 1 in
            if si.Automaton.scan_marking then
              loop after (if b then sem.cat acc m else acc) true
            else if b then (acc, true)
            else loop after acc found
          end
        end
      in
      let marks, found = loop x sem.empty false in
      if si.Automaton.scan_marking then [ (sp.sp_state, marks) ]
      else if found then [ (sp.sp_state, sem.empty) ]
      else []
  (* A scan's match formula at position [p] (tag [tag]) of a region
     ending at [limit] with region tag [rt]. *)
  and eval_match sp p tag limit rt =
    let r1 =
      if Stateset.is_empty sp.sp_down1 then []
      else eval (Tree_backend.first_child bp p) sp.sp_down1 (Tree_backend.close bp p) tag
    in
    let r2 =
      if Stateset.is_empty sp.sp_down2 then []
      else eval (Tree_backend.next_sibling bp p) sp.sp_down2 limit rt
    in
    eval_phi r1 r2 p tag sp.sp_info.Automaton.scan_match
  and visit x qtd limit rt =
    bcheck ();
    stats.visited <- stats.visited + 1;
    let tag = Tree_backend.tag ti x in
    let an = analyse qtd tag in
    if an.a_phis = [||] then []
    else begin
      let r1 =
        if Stateset.is_empty an.a_q1 then []
        else eval (Tree_backend.first_child bp x) an.a_q1 (Tree_backend.close bp x) tag
      in
      if Stateset.is_empty an.a_q2 then
        Array.to_list an.a_phis
        |> List.filter_map (fun (q, phi) ->
               let b, m = eval_phi r1 [] x tag phi in
               if b then Some (q, m) else None)
      else if not config.enable_early then begin
        let r2 = eval (Tree_backend.next_sibling bp x) an.a_q2 limit rt in
        Array.to_list an.a_phis
        |> List.filter_map (fun (q, phi) ->
               let b, m = eval_phi r1 r2 x tag phi in
               if b then Some (q, m) else None)
      end
      else begin
        (* §5.5.5: decide truth with the left results alone where
           possible; only undecided formulas force the next-sibling
           recursion.  A formula decided true here stays true under the
           empty right results (its accepted branch contains no Down2
           atom), so marks are built once, by eval_phi. *)
        let partial =
          Array.map (fun (q, phi) -> (q, phi, eval3 r1 x tag phi)) an.a_phis
        in
        let q2, undecided =
          Array.fold_left
            (fun (acc, n) (_, phi, v) ->
              match v with
              | `Unknown -> (phi.Formula.down2 @ acc, n + 1)
              | `True | `False -> (acc, n))
            ([], 0) partial
        in
        (* with every formula undecided the set is the memoized a_q2,
           which saves a trip through the state-set table's lock *)
        let r2 =
          if q2 = [] then []
          else if undecided = Array.length partial then
            eval (Tree_backend.next_sibling bp x) an.a_q2 limit rt
          else eval (Tree_backend.next_sibling bp x) (Stateset.of_list q2) limit rt
        in
        Array.to_list partial
        |> List.filter_map (fun (q, phi, v) ->
               match v with
               | `False -> None
               | `True ->
                 let _, m = eval_phi r1 [] x tag phi in
                 Some (q, m)
               | `Unknown ->
                 let b, m = eval_phi r1 r2 x tag phi in
                 if b then Some (q, m) else None)
      end
    end
  (* Truth-only three-valued evaluation with the first-child results:
     Down2 atoms are unknown. *)
  and eval3 r1 x tag (phi : Formula.t) =
    match phi.Formula.node with
    | Formula.True -> `True
    | Formula.False -> `False
    | Formula.Mark -> `True
    | Formula.Down1 q ->
      if List.mem_assoc q r1 then `True else `False
    | Formula.Down2 _ -> `Unknown
    | Formula.Is_label g ->
      if Automaton.guard_matches auto g tag then `True else `False
    | Formula.Pred i -> if pred_eval i x then `True else `False
    | Formula.And (p1, p2) -> begin
      match eval3 r1 x tag p1 with
      | `False -> `False
      | `True -> eval3 r1 x tag p2
      | `Unknown -> begin
        (* still short-circuit on a definitely-false right arm *)
        match eval3 r1 x tag p2 with `False -> `False | `True | `Unknown -> `Unknown
      end
    end
    | Formula.Or (p1, p2) -> begin
      match eval3 r1 x tag p1 with
      | `True -> `True
      | `False -> eval3 r1 x tag p2
      | `Unknown -> `Unknown
    end
    | Formula.Not p -> begin
      match eval3 r1 x tag p with
      | `True -> `False
      | `False -> `True
      | `Unknown -> `Unknown
    end
  and eval_phi r1 r2 x tag (phi : Formula.t) =
    match phi.Formula.node with
    | Formula.True -> (true, sem.empty)
    | Formula.False -> (false, sem.empty)
    | Formula.Mark ->
      stats.marked <- stats.marked + 1;
      (true, sem.mark x)
    | Formula.Down1 q -> lookup r1 q
    | Formula.Down2 q -> lookup r2 q
    | Formula.Is_label g -> (Automaton.guard_matches auto g tag, sem.empty)
    | Formula.Pred i -> (pred_eval i x, sem.empty)
    | Formula.And (p1, p2) ->
      let b1, m1 = eval_phi r1 r2 x tag p1 in
      if not b1 then (false, sem.empty)
      else begin
        let b2, m2 = eval_phi r1 r2 x tag p2 in
        if b2 then (true, sem.cat m1 m2) else (false, sem.empty)
      end
    | Formula.Or (p1, p2) ->
      (* left-biased: marks of the first accepting disjunct only,
         which is a superset of the generic continuation's by
         construction *)
      let b1, m1 = eval_phi r1 r2 x tag p1 in
      if b1 then (true, m1) else eval_phi r1 r2 x tag p2
    | Formula.Not p -> (not (fst (eval_phi r1 r2 x tag p)), sem.empty)
  in
  let res =
    eval (Document.root doc)
      (Stateset.of_list [ auto.Automaton.start ])
      (Tree_backend.length bp) (-1)
  in
  match List.assoc_opt auto.Automaton.start res with
  | Some m -> m
  | None -> sem.empty
