(* What the benchmark's helpers share: the corpus and runner options the
   binary's flags imply, the flag parser, and the flat JSON line every
   helper prints as its last line of output. *)

module Corpus = Extr_corpus.Corpus
module Runner = Extr_eval.Runner
module Json = Extr_httpmodel.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* A workload, as far as the helpers are concerned: run.py passes them
   the [--gen COUNT --gen-seed SEED] it passes the binary, or nothing
   for the paper corpus.  [--jobs] never changes a result, so the
   helpers run everything in one process. *)
let corpus gen : Corpus.entry list =
  match gen with
  | Some (seed, count) -> Corpus.generated ~seed ~count
  | None -> Corpus.case_studies () @ Corpus.table1 ()

(* The options [extractocol --all] builds from the same flags: CLI
   defaults everywhere, plus the [--gen] corpus tag. *)
let runner_options ?cache_dir ?journal gen =
  {
    Runner.default_options with
    Runner.ro_cache_dir = cache_dir;
    ro_journal = journal;
    ro_corpus_tag =
      Option.map (fun (seed, count) -> Printf.sprintf "gen=%d:%d" seed count) gen;
  }

(* [--key value] flags after the subcommand, as an association list. *)
let parse_flags argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> List.rev acc
    | x :: _ -> die "unexpected argument %S" x
  in
  go [] argv

let flag flags k = List.assoc_opt k flags

let need flags k =
  match flag flags k with Some v -> v | None -> die "missing --%s" k

let int_flag flags k =
  Option.map
    (fun v ->
      match int_of_string_opt v with Some n -> n | None -> die "--%s: %S" k v)
    (flag flags k)

let gen_flags flags =
  Option.map
    (fun count -> (Option.value (int_flag flags "gen-seed") ~default:1, count))
    (int_flag flags "gen")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Metric lines: one flat JSON object, numbers printed with all their
   digits so run.py sees the measured value. *)
let print_metrics (kvs : (string * float) list) =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  print_endline
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (num v)) kvs)
    ^ "}")
