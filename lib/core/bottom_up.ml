open Sxsi_xml
open Sxsi_tree
open Sxsi_xpath.Ast

(* The plan flattens the query into one chain of child/descendant steps
   ending at the node the text predicate applies to; the query's answer
   node sits at [result_idx] in the chain.  E.g.
   //Article[.//AbstractText[contains(., "x")]]  becomes the chain
   [descendant::Article; descendant::AbstractText] with the predicate
   on the last step and result_idx = 0. *)
type plan = {
  steps : step array;     (* chain, predicates stripped *)
  result_idx : int;
  pred : Sxsi_auto.Automaton.pred_descr;
  string_value : bool;    (* contains over the last step's string-value:
                             every ancestor of a hit text matches *)
}

(* Flatten a step list into (chain, predicate), accepting only
   single-chain shapes: child/descendant axes, no predicates except one
   trailing value predicate (possibly nested through Exists paths or a
   value path). *)
let rec flatten steps =
  match steps with
  | [] -> None
  | [ last ] ->
    if last.axis <> Child && last.axis <> Descendant && last.axis <> Attribute then
      None
    else begin
      match last.preds with
      | [ Value ({ absolute = false; steps = [] }, op, lit) ] ->
        Some ([ { last with preds = [] } ], Sxsi_auto.Automaton.Text_pred (op, lit))
      | [ Fun (name, { absolute = false; steps = [] }, arg) ] ->
        Some ([ { last with preds = [] } ], Sxsi_auto.Automaton.Custom_pred (name, arg))
      | [ Value ({ absolute = false; steps = inner_steps }, op, lit) ] ->
        (* contains(a/b, "x"): the value path extends the chain *)
        let inner =
          flatten
            (match List.rev inner_steps with
            | last_inner :: rev_init ->
              List.rev rev_init
              @ [ { last_inner with preds = last_inner.preds @ [ Value ({ absolute = false; steps = [] }, op, lit) ] } ]
            | [] -> [])
        in
        Option.map
          (fun (chain, pred) -> ({ last with preds = [] } :: chain, pred))
          inner
      | [ Exists { absolute = false; steps = inner_steps } ] ->
        Option.map
          (fun (chain, pred) -> ({ last with preds = [] } :: chain, pred))
          (flatten inner_steps)
      | _ -> None
    end
  | step :: rest ->
    if step.preds <> [] || (step.axis <> Child && step.axis <> Descendant) then None
    else
      Option.map (fun (chain, pred) -> ({ step with preds = [] } :: chain, pred)) (flatten rest)

let plan doc (path : path) =
  if not path.absolute || path.steps = [] then None
  else begin
    match flatten path.steps with
    | None -> None
    | Some (chain, pred) ->
      let steps = Array.of_list chain in
      let result_idx = List.length path.steps - 1 in
      let last = steps.(Array.length steps - 1) in
      (* one matching text pins down one candidate node for attributes,
         text nodes and PCDATA-only tags *)
      let pcdata_name =
        match last.test with
        | Name n -> begin
          match Document.tag_id doc n with
          | Some tg -> Document.tag_is_pcdata doc tg
          | None -> true (* unknown tag: no results either way *)
        end
        | Star | Node | Text -> false
      in
      (* contains(., P) holds on every ancestor of a node it holds on, so
         any element (or node()) step can start from the hit texts *)
      let string_value =
        last.axis <> Attribute && last.test <> Text && not pcdata_name
        &&
        match pred with
        | Sxsi_auto.Automaton.Text_pred (Contains, lit) -> lit <> ""
        | Sxsi_auto.Automaton.Text_pred _ | Sxsi_auto.Automaton.Custom_pred _ -> false
      in
      let target_ok =
        match (last.axis, last.test) with
        | Attribute, Text -> false
        | Attribute, (Star | Name _ | Node) | _, Text -> true
        | _, (Star | Name _ | Node) -> pcdata_name || string_value
      in
      (* attribute steps are only supported in final position *)
      let attrs_ok =
        Array.for_all (fun s -> s.axis <> Attribute)
          (Array.sub steps 0 (Array.length steps - 1))
      in
      if target_ok && attrs_ok then Some { steps; result_idx; pred; string_value }
      else None
  end

let pred_of p = p.pred
let reads_string_value p = p.string_value

let matches_empty_value ?(funs = fun _ -> None) p =
  match p.pred with
  | Sxsi_auto.Automaton.Text_pred (op, lit) -> Run.value_matches op "" lit
  | Sxsi_auto.Automaton.Custom_pred (name, arg) ->
    (Run.custom_fn funs name arg).Run.cp_match ""

(* The node test of a step, as a test on tags with the name resolved
   once. *)
let tag_test doc (step : step) =
  let is tg' = fun tg -> tg = tg' in
  match step.axis with
  | Attribute -> begin
    match step.test with
    | Star | Node -> Document.is_attribute_tag doc
    | Name n -> (match Document.attribute_tag_id doc n with Some a -> is a | None -> fun _ -> false)
    | Text -> fun _ -> false
  end
  | Self | Child | Descendant | Following_sibling -> begin
    match step.test with
    | Star -> Document.is_element_tag doc
    | Name n -> (match Document.tag_id doc n with Some a -> is a | None -> fun _ -> false)
    | Text -> is Document.text_tag
    | Node ->
      fun tg ->
        Document.is_element_tag doc tg || tg = Document.text_tag || tg = Document.root_tag
  end

(* Whole-query static feasibility, the bottom-up counterpart of the
   optimizer's jump sets: the §5.5.6 relative-tag tables already know
   which tags ever occur below which.  A chain with an impossible
   consecutive Name/Name pair selects nothing, whatever the texts say
   — skip the text-index query and the candidate walks entirely. *)
let chain_feasible doc p =
  let rel = Document.rel doc in
  let k = Array.length p.steps in
  let tag_of i =
    match (p.steps.(i).axis, p.steps.(i).test) with
    | Attribute, _ -> None
    | _, Name n -> Document.tag_id doc n
    | _, (Star | Text | Node) -> None
  in
  let ok = ref true in
  for i = 1 to k - 1 do
    match (tag_of (i - 1), tag_of i, p.steps.(i).axis) with
    | Some ta, Some tb, Child ->
      if not (Tag_rel.mem rel Tag_rel.Child ta tb) then ok := false
    | Some ta, Some tb, Descendant ->
      if not (Tag_rel.mem rel Tag_rel.Descendant ta tb) then ok := false
    | _ -> ()
  done;
  !ok

(* KMP failure table: longest proper border of [lit.[0..i]]. *)
let kmp_fail lit =
  let m = String.length lit in
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

(* The lowest node whose string-value holds a match of [lit] that ends
   in text [j] and starts in an earlier text.  Such a match lies in the
   window made of the last |lit| - 1 characters before [j] and the first
   |lit| - 1 characters of [j]; the last match in that window starts in
   the latest text, so its LCA with [j] is the lowest.  Attribute values
   are not part of an element's string-value
   ({!Document.iter_string_value}) and are skipped. *)
let straddle_lca doc fail lit j =
  let m = String.length lit in
  let leaf d = Document.leaf_of_text doc d in
  let is_value d = Document.tag_of doc (leaf d) = Document.attval_tag in
  if is_value j then None
  else begin
    (* (text, the part of it in the window), earliest first *)
    let rec back d need acc =
      if d < 0 || need <= 0 then acc
      else if is_value d then back (d - 1) need acc
      else begin
        let s = Document.get_text doc d in
        let n = String.length s in
        back (d - 1) (need - n) ((d, if n > need then String.sub s (n - need) need else s) :: acc)
      end
    in
    let pieces = back (j - 1) (m - 1) [] in
    let tail = Document.get_text doc j in
    (* neither side of the window holds |lit| characters, so every
       match in it straddles into [j] *)
    let w =
      String.concat "" (List.map snd pieces @ [ String.sub tail 0 (min (String.length tail) (m - 1)) ])
    in
    let last_end = ref (-1) and k = ref 0 in
    String.iteri
      (fun i c ->
        while !k > 0 && lit.[!k] <> c do
          k := fail.(!k - 1)
        done;
        if lit.[!k] = c then incr k;
        if !k = m then begin
          last_end := i;
          k := fail.(m - 1)
        end)
      w;
    if !last_end < 0 then None
    else begin
      let rec first_text off = function
        | (d, s) :: rest ->
          if !last_end - m + 1 < off + String.length s then d
          else first_text (off + String.length s) rest
        | [] -> assert false
      in
      let li = leaf (first_text 0 pieces) in
      (* the LCA: the first ancestor of [j]'s leaf that opens before [li] *)
      let rec up y = if y <= li then y else up (Tree_backend.parent (Document.tree doc) y) in
      Some (up (leaf j))
    end
  end

let run_with_text_time ?budget ?(funs = fun _ -> None) doc p =
  if not (chain_feasible doc p) then (0.0, [])
  else begin
  let bp = Document.tree doc in
  let parent = Tree_backend.parent bp in
  let k = Array.length p.steps in
  let r = p.result_idx in
  (* One step per candidate text and per propagated node: each
     verification walks a root path of bounded depth, so this
     granularity keeps the check off the inner memoized recursions while
     still bounding the scan-shaped outer loops. *)
  let bcheck =
    match budget with
    | None -> fun () -> ()
    | Some b -> fun () -> Sxsi_qos.Budget.check b
  in
  let tests = Array.map (tag_test doc) p.steps in
  let test_ok i x = tests.(i) (Document.tag_of doc x) in
  let lit =
    match p.pred with
    | Sxsi_auto.Automaton.Text_pred (_, lit) -> lit
    | Sxsi_auto.Automaton.Custom_pred _ -> ""
  in
  let t0 = Unix.gettimeofday () in
  let texts = Run.text_set_of_pred doc funs p.pred in
  let tails =
    if p.string_value then
      Array.of_list (Sxsi_text.Text_collection.straddle_tails (Document.text doc) lit)
    else [||]
  in
  let text_time = Unix.gettimeofday () -. t0 in
  (* upward verification, shared across candidates: can [x] serve as
     the chain's step [i], with steps 0..i-1 assigned to ancestors? *)
  let memo : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec up_ok i x =
    x >= 0
    &&
    let key = (x * k) + i in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
      let b =
        test_ok i x
        &&
        if i = 0 then begin
          match p.steps.(0).axis with
          | Child -> parent x = Document.root doc
          | Descendant -> x <> Document.root doc
          | Self | Attribute | Following_sibling -> false
        end
        else begin
          match p.steps.(i).axis with
          | Child -> up_ok (i - 1) (parent x)
          | Descendant ->
            let rec up y = y >= 0 && (up_ok (i - 1) y || up (parent y)) in
            up (parent x)
          | Attribute ->
            (* the owner element: above the attribute's "@" list node *)
            let at = parent x in
            at >= 0 && up_ok (i - 1) (parent at)
          | Self | Following_sibling -> false
        end
      in
      Hashtbl.replace memo key b;
      b
  in
  (* the nodes that can serve the last step *)
  let level : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let offer x = if x >= 0 && test_ok (k - 1) x then Hashtbl.replace level x () in
  let last = p.steps.(k - 1) in
  if p.string_value then begin
    (* a hit text and every ancestor of it match; so does every ancestor
       of a straddling match's LCA.  Each walk stops at the first node
       already marked, so marking costs O(texts + marked nodes). *)
    let marked : (int, unit) Hashtbl.t = Hashtbl.create 256 in
    let rec mark x =
      if x >= 0 && not (Hashtbl.mem marked x) then begin
        Hashtbl.add marked x ();
        offer x;
        mark (parent x)
      end
    in
    Array.iter
      (fun d ->
        bcheck ();
        let leaf = Document.leaf_of_text doc d in
        if Document.tag_of doc leaf = Document.text_tag then mark leaf)
      texts;
    let fail = kmp_fail lit in
    Array.iter
      (fun d ->
        bcheck ();
        Option.iter mark (straddle_lca doc fail lit d))
      tails
  end
  else
    Array.iter
      (fun d ->
        bcheck ();
        let leaf = Document.leaf_of_text doc d in
        let tg = Document.tag_of doc leaf in
        match (last.axis, last.test) with
        | Attribute, _ ->
          (* matched value leaf must be a "%" under an attribute node *)
          if tg = Document.attval_tag then offer (parent leaf)
        | _, Text -> if tg = Document.text_tag then offer leaf
        | _, (Star | Name _ | Node) ->
          let x = parent leaf in
          if x >= 0 && tg = Document.text_tag && Document.pcdata_only doc x then offer x)
      texts;
  (* Down to the answer step: the nodes serving step [j - 1] are those
     that reach a node serving step [j] through step [j]'s axis.  A
     descendant walk stops at the first node an earlier walk of the
     same level passed. *)
  let level = ref level in
  for j = k - 1 downto r + 1 do
    let cur = !level in
    let next = Hashtbl.create 64 and walked = Hashtbl.create 64 in
    let offer y = if y >= 0 && test_ok (j - 1) y then Hashtbl.replace next y () in
    Hashtbl.iter
      (fun z () ->
        bcheck ();
        match p.steps.(j).axis with
        | Child -> offer (parent z)
        | Attribute ->
          (* the owner element: above the attribute's "@" list node *)
          let at = parent z in
          if at >= 0 then offer (parent at)
        | Descendant ->
          let rec up y =
            if y >= 0 && not (Hashtbl.mem walked y) then begin
              Hashtbl.add walked y ();
              offer y;
              up (parent y)
            end
          in
          up (parent z)
        | Self | Following_sibling -> ())
      cur;
    level := next
  done;
  let results = Hashtbl.fold (fun x () acc -> if up_ok r x then x :: acc else acc) !level [] in
  (text_time, List.sort compare results)
  end

let run ?budget ?funs doc p = snd (run_with_text_time ?budget ?funs doc p)
