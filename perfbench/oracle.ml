(* Correctness oracle for the benchmark.

     oracle.exe check --envelope FILE [--gen COUNT --gen-seed SEED]
       Re-analyzes every app of the workload in-process with
       Pipeline.analyze and rebuilds the report envelope from those
       reports plus the envelope's own status/cached/attempts columns;
       the rebuild must equal FILE byte for byte, which ties the reports
       checked below to what the binary wrote.  Then, against references
       the analyzer did not produce:
         wrong_cells     (app, method) cells whose request count differs
                         from the spec's statically visible endpoints
                         (and, for Table-1 apps, from the row's
                         Extractocol column)
         unmatched_msgs  concrete requests to supported endpoints, from
                         Fuzz.run ~policy:`Full (runtime + origin
                         servers), that no static signature accepts
                         (Eval.signature_validity)

   The [--gen] flags are the ones the binary ran with. *)

open Bench_common
module Pipeline = Extr_extractocol.Pipeline
module Report = Extr_extractocol.Report
module Spec = Extr_corpus.Spec
module Synth = Extr_corpus.Synth
module Eval = Extr_eval.Eval
module Fuzz = Extr_fuzz.Fuzz
module Http = Extr_httpmodel.Http
module Pool = Extr_eval.Pool

let methods = [ Http.GET; Http.POST; Http.PUT; Http.DELETE ]

(* The envelope's per-app bookkeeping (everything but the report): what
   the runner decided about each app, to be checked against a rebuild. *)
type member = {
  m_status : string;
  m_cached : bool;
  m_attempts : int;
}

let envelope_members text : string * member list =
  let j = Json.of_string text in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> "" in
  let apps = match Json.member "apps" j with Some (Json.List l) -> l | _ -> [] in
  ( str "config" j,
    List.map
      (fun o ->
        {
          m_status = str "status" o;
          m_cached = Json.member "cached" o = Some (Json.Bool true);
          m_attempts =
            (match Json.member "attempts" o with Some (Json.Int n) -> n | _ -> -1);
        })
      apps )

(* Wrong (app, method) cells of one report, each with a reason. *)
let wrong_cells (e : Corpus.entry) (report : Report.t) =
  let visible = Spec.statically_visible e.Corpus.c_app in
  let row_count (r : Synth.row) = function
    | Http.GET -> r.Synth.t_get
    | Http.POST -> r.Synth.t_post
    | Http.PUT -> r.Synth.t_put
    | _ -> r.Synth.t_delete
  in
  List.filter_map
    (fun m ->
      let got = List.length (Report.requests_by_method report m) in
      let spec =
        List.length (List.filter (fun (ep : Spec.endpoint) -> ep.Spec.e_meth = m) visible)
      in
      let row =
        Option.map (fun r -> let x, _, _ = row_count r m in x) e.Corpus.c_row
      in
      if got <> spec || (row <> None && row <> Some got) then
        Some
          (Printf.sprintf "%s: report %d, spec %d%s" (Http.meth_to_string m) got
             spec
             (match row with Some n -> Printf.sprintf ", Table 1 %d" n | None -> ""))
      else None)
    methods

(* One app: its deterministic report and its oracle counts. *)
let check_app (options : Runner.options) (id, (e : Corpus.entry)) =
  let apk = Lazy.force e.Corpus.c_apk in
  let report =
    (Pipeline.analyze ~options:options.Runner.ro_pipeline apk).Pipeline.an_report
  in
  let bad = wrong_cells e report in
  List.iter (fun s -> Printf.eprintf "wrong cell %s %s\n%!" id s) bad;
  let trace = Fuzz.run e.Corpus.c_app apk ~policy:`Full in
  let empty = { Http.tr_app = id; tr_entries = [] } in
  let ae =
    {
      Eval.ae_app = e.Corpus.c_app;
      ae_report = report;
      ae_auto = empty;
      ae_manual = empty;
      ae_full = trace;
      ae_row = e.Corpus.c_row;
    }
  in
  let ok, total = Eval.signature_validity ae trace in
  if ok < total then
    Printf.eprintf "unmatched %s: %d of %d requests\n%!" id (total - ok) total;
  (Json.to_string (Report.to_json ~deterministic:true report), List.length bad, total, total - ok)

let check flags =
  let gen = gen_flags flags in
  let envelope = read_file (need flags "envelope") in
  let t0 = Unix.gettimeofday () in
  let entries = Runner.identify (corpus gen) in
  let options = runner_options gen in
  let config = Runner.config_fingerprint options in
  let env_config, members = envelope_members envelope in
  (* The oracle is not timed; the runner's own pool only keeps it short. *)
  let tasks = Array.of_list entries in
  let out = Array.make (Array.length tasks) None in
  ignore
    (Pool.run ~jobs:2
       ~tasks:(List.init (Array.length tasks) Fun.id)
       ~worker:(fun ~emit:_ ~beat:_ i -> check_app options tasks.(i))
       ~farewell:ignore ~on_event:ignore ~on_bye:ignore
       ~on_death:(fun ~task ~cause:_ -> die "oracle worker died on %s" (fst tasks.(task)))
       ~on_result:(fun i r -> out.(i) <- Some r)
       ());
  let checked = Array.to_list (Array.map Option.get out) in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 checked in
  let results = List.map2 (fun (id, _) (data, _, _, _) -> (id, data)) entries checked in
  (* The rebuild takes the runner's bookkeeping from the envelope and the
     reports from this process; a mismatch in either shows as a diff. *)
  let rebuilt =
    if List.length members <> List.length results then None
    else
      Some
        (Runner.report_json ~config
           {
             Runner.rn_results =
               List.map2
                 (fun m (id, data) ->
                   {
                     Runner.ar_app = id;
                     ar_status =
                       Option.value (Runner.status_of_name m.m_status)
                         ~default:Runner.Quarantined;
                     ar_cached = m.m_cached;
                     ar_resumed = false;
                     ar_attempts = m.m_attempts;
                     ar_txs = 0;
                     ar_degradations = [];
                     ar_elapsed_s = 0.0;
                     ar_crash = None;
                     ar_report_json = Some data;
                   })
                 members results;
             rn_interrupted = false;
             rn_quarantined = [];
             rn_worker_spans = [];
           })
  in
  let identical = rebuilt = Some envelope in
  if not identical then prerr_endline "envelope differs from the in-process rebuild";
  if env_config <> config then
    Printf.eprintf "envelope config %S, expected %S\n" env_config config;
  let failed =
    List.length (List.filter (fun m -> m.m_status <> "ok") members)
    + max 0 (List.length entries - List.length members)
  in
  let b x = if x then 1.0 else 0.0 in
  print_metrics
    [
      ("apps", float_of_int (List.length entries));
      ("cells", float_of_int (List.length methods * List.length entries));
      ("wrong_cells", float_of_int (sum (fun (_, w, _, _) -> w)));
      ("msgs", float_of_int (sum (fun (_, _, m, _) -> m)));
      ("unmatched_msgs", float_of_int (sum (fun (_, _, _, u) -> u)));
      ("failed_apps", float_of_int failed);
      ("envelope_identical", b (identical && env_config = config));
      ("oracle_s", Unix.gettimeofday () -. t0);
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "check" :: rest -> check (parse_flags rest)
  | _ -> die "usage: oracle.exe check --envelope FILE [--gen COUNT --gen-seed SEED]"
