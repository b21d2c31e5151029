(* Benchmark documents and query batteries (Figures 9, 14, 16, 18 of
   the paper, adapted to the synthetic generators' vocabularies). *)

open Sxsi_xml
open Sxsi_baseline

let scale_factor = ref 1.0

let scaled n = max 1 (int_of_float (float_of_int n *. !scale_factor))

type corpus = {
  name : string;
  xml : string;
  doc : Document.t Lazy.t;
  dom : Dom.t Lazy.t;
}

let corpus name xml =
  { name; xml; doc = lazy (Document.of_xml xml); dom = lazy (Dom.of_xml xml) }

let xmark_small = lazy (corpus "xmark-small" (Sxsi_datagen.Xmark.generate ~scale:(scaled 1500) ()))
let xmark_large = lazy (corpus "xmark-large" (Sxsi_datagen.Xmark.generate ~scale:(scaled 6000) ()))
let medline = lazy (corpus "medline" (Sxsi_datagen.Medline.generate ~citations:(scaled 8000) ()))
let treebank = lazy (corpus "treebank" (Sxsi_datagen.Treebank.generate ~sentences:(scaled 6000) ()))
let wiki = lazy (corpus "wiki" (Sxsi_datagen.Wiki.generate ~pages:(scaled 4000) ()))
let bio = lazy (corpus "bio" (Sxsi_datagen.Bio.generate ~genes:(scaled 250) ()))

let logs =
  lazy (corpus "logs" (Sxsi_datagen.Logs.generate ~entries:(scaled 20_000) ()))

(* Queries over the structured-log corpus (the backend comparison's
   repetitive-structure workload). *)
let logs_queries =
  [
    ("L01", "/log/entry");
    ("L02", "//entry[@severity]/msg");
    ("L03", "//entry//frame");
    ("L04", "/log/entry/latency");
    ("L05", "//kv[@key]");
  ]

(* XPathMark-style tree queries (Figure 9). *)
let xmark_queries =
  [
    ("X01", "/site/regions");
    ("X02", "/site/regions/*/item");
    ("X03", "/site/closed_auctions/closed_auction/annotation/description/text/keyword");
    ("X04", "//listitem//keyword");
    ("X05", "/site/closed_auctions/closed_auction[annotation/description/text/keyword]/date");
    ("X06", "/site/closed_auctions/closed_auction[.//keyword]/date");
    ("X07", "/site/people/person[profile/gender and profile/age]/name");
    ("X08", "/site/people/person[phone or homepage]/name");
    ("X09", "/site/people/person[address and (phone or homepage) and (creditcard or profile)]/name");
    ("X10", "//listitem[not(.//keyword/emph)]//parlist");
    ("X11", "//listitem[(.//keyword or .//emph) and (.//emph or .//bold)]/parlist");
    ("X12", "//people[.//person[not(address)] and .//person[not(watches)]]/person[watches]");
    ("X13", "/*[.//*]");
    ("X14", "//*");
    ("X15", "//*//*");
    ("X16", "//*//*//*");
    ("X17", "//*//*//*//*");
  ]

(* Treebank queries (Figure 9, T-series). *)
let treebank_queries =
  [
    ("T01", "//NP");
    ("T02", "//S[.//VP and .//NP]/VP/PP[IN]/NP/VBN");
    ("T03", "//NP[.//JJ or .//CC]");
    ("T04", "//CC[not(.//JJ)]");
    ("T05", "//NN[.//VBZ or .//IN]/*[.//NN or .//_QUOTE_]");
  ]

(* Medline text queries (Figure 14). *)
let medline_queries =
  [
    ("M01", "//Article[.//AbstractText[contains(., \"foot\") or contains(., \"feet\")]]");
    ("M02", "//Article[.//AbstractText[contains(., \"plus\")]]");
    ("M03", "//Article[.//AbstractText[contains(., \"plus\") or contains(., \"for\")]]");
    ("M04", "//Article[.//AbstractText[contains(., \"plus\") and not(contains(., \"for\"))]]");
    ("M05", "//MedlineCitation/Article/AuthorList/Author[./LastName[starts-with(., \"Bar\")]]");
    ("M06", "//*[.//LastName[contains(., \"Nguyen\")]]");
    ("M07", "//*//AbstractText[contains(., \"epididymis\")]");
    ("M08", "//*[.//PublicationType[ends-with(., \"Article\")]]");
    ("M09", "//MedlineCitation[.//Country[contains(., \"AUSTRALIA\")]]");
    ("M10", "//MedlineCitation[contains(., \"blood cell\")]");
    ("M11", "//*/*[contains(., \"1999\")]");
  ]

(* Word-based queries (Figure 16): W01-W05 over Medline, W06-W10 over
   the wiki corpus. *)
let word_queries_medline =
  [
    ("W01", "//Article[.//AbstractText[ftcontains(., 'blood sample')]]");
    ("W02", "//Article[.//AbstractText[ftcontains(., 'various types of')]]");
    ("W03",
     "//Article[.//AbstractText[ftcontains(., 'various types of') and ftcontains(., 'immune cells')]]");
    ("W04", "//Article[.//AbstractText[ftcontains(., 'of the bone marrow')]]");
    ("W05",
     "//Article[.//AbstractText[ftcontains(., 'cell') and not(ftcontains(., 'blood'))]]");
  ]

let word_queries_wiki =
  [
    ("W06", "//text[ftcontains(., 'dark horse')]");
    ("W07", "//text[ftcontains(., 'horse') and ftcontains(., 'princess')]");
    ("W08", "//page/child::title[ftcontains(., 'crude oil')]");
    ("W09", "//page[.//text[ftcontains(., 'played on a board')]]/title");
    ("W10", "//page[.//text[ftcontains(., 'dark') and ftcontains(., 'gold')]]/title");
  ]

(* PSSM queries (Figure 18). *)
let pssm_queries =
  [
    "//promoter[PSSM(., M1)]";
    "//promoter[PSSM(., M2)]";
    "//promoter[PSSM(., M3)]";
    "//exon[.//sequence[PSSM(., M1)]]";
    "//exon[.//sequence[PSSM(., M2)]]";
    "//exon[.//sequence[PSSM(., M3)]]";
    "//*[PSSM(., M1)]";
    "//*[PSSM(., M2)]";
    "//*[PSSM(., M3)]";
  ]

(* Table II/III patterns, sweeping occurrence counts over orders of
   magnitude in the Medline corpus vocabulary. *)
let fm_patterns =
  [
    "Bakst"; "ruminants"; "morphine"; "AUSTRALIA"; "molecule"; "brain";
    "human"; "blood"; "from"; "with"; "in"; "a";
  ]

(* The contains literals of the Medline battery, swept with the Table
   II/III patterns to fit the scan-or-locate rule where queries use it. *)
let medline_literals =
  [ "foot"; "feet"; "plus"; "for"; "Nguyen"; "epididymis"; "blood cell"; "1999" ]

(* Word-index registry over a document's texts. *)
let ft_registry doc =
  let widx = lazy (Sxsi_wordindex.Word_index.build (Document.texts doc)) in
  fun key ->
    match String.index_opt key ':' with
    | Some i when String.sub key 0 i = "ftcontains" ->
      let phrase = String.sub key (i + 1) (String.length key - i - 1) in
      Some
        {
          Sxsi_core.Run.cp_match =
            (fun s -> Sxsi_wordindex.Word_index.matches_text (Lazy.force widx) phrase s);
          cp_texts =
            Some (fun () -> Sxsi_wordindex.Word_index.contains_phrase (Lazy.force widx) phrase);
        }
    | _ -> None

(* DOM-side word predicate for the baseline comparison. *)
let ft_dom_funs () =
  let scratch = Sxsi_wordindex.Word_index.build [| "" |] in
  fun key ->
    match String.index_opt key ':' with
    | Some i when String.sub key 0 i = "ftcontains" ->
      let phrase = String.sub key (i + 1) (String.length key - i - 1) in
      Some (fun node ->
          Sxsi_wordindex.Word_index.matches_text scratch phrase (Dom.string_value node))
    | _ -> None

let pssm_dom_funs () =
  fun key ->
    List.find_map
      (fun (m, threshold) ->
        if key = "PSSM:" ^ Sxsi_bio.Pssm.name m then
          Some
            (fun node ->
              Sxsi_bio.Pssm.matches m ~threshold (Dom.string_value node))
        else None)
      Sxsi_bio.Pssm.sample_matrices
