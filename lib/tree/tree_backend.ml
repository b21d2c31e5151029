module Slp = Sxsi_grammar.Slp

type kind = [ `Bp | `Grammar ]

type t =
  | Bp_backend of { bp : Bp.t; tags : Tag_index.t; leaves : Sxsi_bits.Bitvec.t }
  | Grammar_backend of Slp.t

let of_bp ~bp ~tags ~leaves = Bp_backend { bp; tags; leaves }
let of_slp slp = Grammar_backend slp

let kind = function Bp_backend _ -> `Bp | Grammar_backend _ -> `Grammar
let kind_name = function Bp_backend _ -> "bp" | Grammar_backend _ -> "grammar"

let kind_of_name = function
  | "bp" -> Some `Bp
  | "grammar" -> Some `Grammar
  | _ -> None

let bp_exn = function
  | Bp_backend b -> b.bp
  | Grammar_backend _ -> invalid_arg "Tree_backend.bp_exn: grammar backend"

let tag_index_exn = function
  | Bp_backend b -> b.tags
  | Grammar_backend _ -> invalid_arg "Tree_backend.tag_index_exn: grammar backend"

let slp_exn = function
  | Grammar_backend g -> g
  | Bp_backend _ -> invalid_arg "Tree_backend.slp_exn: bp backend"

let length = function
  | Bp_backend b -> Bp.length b.bp
  | Grammar_backend g -> Slp.length g

let node_count = function
  | Bp_backend b -> Bp.node_count b.bp
  | Grammar_backend g -> Slp.node_count g

let is_open t i =
  match t with
  | Bp_backend b -> Bp.is_open b.bp i
  | Grammar_backend g -> Slp.is_open g i

let excess t i =
  match t with
  | Bp_backend b -> Bp.excess b.bp i
  | Grammar_backend g -> Slp.excess g i

let close t i =
  match t with
  | Bp_backend b -> Bp.close b.bp i
  | Grammar_backend g -> Slp.close g i

let open_ t i =
  match t with
  | Bp_backend b -> Bp.open_ b.bp i
  | Grammar_backend g -> Slp.open_ g i

let enclose t i =
  match t with
  | Bp_backend b -> Bp.enclose b.bp i
  | Grammar_backend g -> Slp.enclose g i

let root = function Bp_backend b -> Bp.root b.bp | Grammar_backend g -> Slp.root g

let preorder t i =
  match t with
  | Bp_backend b -> Bp.preorder b.bp i
  | Grammar_backend g -> Slp.preorder g i

let node_of_preorder t p =
  match t with
  | Bp_backend b -> Bp.node_of_preorder b.bp p
  | Grammar_backend g -> Slp.node_of_preorder g p

let subtree_size t i =
  match t with
  | Bp_backend b -> Bp.subtree_size b.bp i
  | Grammar_backend g -> Slp.subtree_size g i

let is_ancestor t x y =
  match t with
  | Bp_backend b -> Bp.is_ancestor b.bp x y
  | Grammar_backend g -> Slp.is_ancestor g x y

let is_leaf t i =
  match t with
  | Bp_backend b -> Bp.is_leaf b.bp i
  | Grammar_backend g -> Slp.is_leaf g i

let first_child t i =
  match t with
  | Bp_backend b -> Bp.first_child b.bp i
  | Grammar_backend g -> Slp.first_child g i

let next_sibling t i =
  match t with
  | Bp_backend b -> Bp.next_sibling b.bp i
  | Grammar_backend g -> Slp.next_sibling g i

let parent t i =
  match t with
  | Bp_backend b -> Bp.parent b.bp i
  | Grammar_backend g -> Slp.parent g i

let depth t i =
  match t with
  | Bp_backend b -> Bp.depth b.bp i
  | Grammar_backend g -> Slp.depth g i

let tag_count = function
  | Bp_backend b -> Tag_index.tag_count b.tags
  | Grammar_backend g -> Slp.tag_count g

(* The Bp arm's Tag_index already reports into the profiling probe;
   the grammar arm reports explicitly so telemetry stays comparable. *)

let tag t i =
  match t with
  | Bp_backend b -> Tag_index.tag b.tags i
  | Grammar_backend g ->
    Tag_index.probe_tag_read ();
    Slp.tag g i

let parens_into t i dst n =
  match t with
  | Bp_backend b ->
    Tag_index.tags_into b.tags i dst n;
    for k = 0 to n - 1 do
      Array.unsafe_set dst k
        ((2 * Array.unsafe_get dst k) + if Bp.is_open b.bp (i + k) then 0 else 1)
    done
  | Grammar_backend g ->
    if n > Array.length dst then invalid_arg "Tree_backend.parens_into";
    let k = ref 0 in
    Slp.iter_range g i (i + n) (fun sym ->
        Array.unsafe_set dst !k sym;
        incr k)

let count t tg =
  match t with
  | Bp_backend b -> Tag_index.count b.tags tg
  | Grammar_backend g -> Slp.count_tag g tg

let subtree_tags t x tg =
  match t with
  | Bp_backend b -> Tag_index.subtree_tags b.tags x tg
  | Grammar_backend g -> Slp.subtree_tags g x tg

let tagged_desc t x tg =
  match t with
  | Bp_backend b -> Tag_index.tagged_desc b.tags x tg
  | Grammar_backend g ->
    Tag_index.probe_jump ();
    Slp.tagged_desc g x tg

let tagged_foll t x tg =
  match t with
  | Bp_backend b -> Tag_index.tagged_foll b.tags x tg
  | Grammar_backend g ->
    Tag_index.probe_jump ();
    Slp.tagged_foll g x tg

let tagged_prec t x tg =
  match t with
  | Bp_backend b -> Tag_index.tagged_prec b.tags x tg
  | Grammar_backend g ->
    Tag_index.probe_jump ();
    Slp.tagged_prec g x tg

let tagged_next t i tg =
  match t with
  | Bp_backend b -> Tag_index.tagged_next b.tags i tg
  | Grammar_backend g ->
    Tag_index.probe_jump ();
    Slp.tagged_next g i tg

let rank_tag t tg i =
  match t with
  | Bp_backend b -> Tag_index.rank_tag b.tags tg i
  | Grammar_backend g -> Slp.rank_tag g tg i

let select_tag t tg j =
  match t with
  | Bp_backend b -> Tag_index.select_tag b.tags tg j
  | Grammar_backend g -> Slp.select_tag g tg j

let leaf_count = function
  | Bp_backend b -> Sxsi_bits.Bitvec.count b.leaves
  | Grammar_backend g -> Slp.leaf_count g

let leaf_rank t i =
  match t with
  | Bp_backend b -> Sxsi_bits.Bitvec.rank1 b.leaves i
  | Grammar_backend g -> Slp.leaf_rank g i

let leaf_select t d =
  match t with
  | Bp_backend b -> Sxsi_bits.Bitvec.select1 b.leaves d
  | Grammar_backend g -> Slp.leaf_select g d

let space_bits = function
  | Bp_backend b ->
    Bp.space_bits b.bp + Tag_index.space_bits b.tags
    + Sxsi_bits.Bitvec.space_bits b.leaves
  | Grammar_backend g -> Slp.space_bits g
