(* Offline union of sharded --all artifacts: [extractocol merge].

   N shard runs (each `--shard K/N` over the same corpus and
   configuration) leave N journals and N (or fewer, when shared) cache
   directories.  This module folds them back into the artifacts one
   unsharded run would have produced: a report envelope byte-identical
   to `--all --jobs 1`, a merged journal the stats/merge readers accept
   like a runner-written one, the unioned cache entries, and a unioned
   metrics snapshot.

   Robustness is the design driver, not a bolt-on:

   - Idempotent: per-app conflicts (overlapping shards, duplicated
     work, re-merging a merged journal) resolve under Runner.replay's
     winner rule — newest finished record by journal stamp, ties to
     the later input — so merge(merge(x)) = merge(x).
   - Corruption never aborts: an unreadable journal, a dropped record
     or a missing/corrupt/non-report cache entry becomes a degradation
     record in the envelope; the merge completes with everything else.
   - Missing work is explicit: shards declared by the journals' (or
     [expect_shards]') K/N identities but absent, and corpus apps no
     surviving journal accounts for, are listed in the envelope and
     reflected in the exit code — never a silent gap.
   - Reading is read-only: inputs are never opened for writing, so
     merging artifacts of a still-running shard is safe (it just sees a
     prefix).  Writing the outputs is the caller's job (the CLI), via
     the atomic [Export.write_file] discipline. *)

module Journal = Extr_resilience.Journal
module Json = Extr_httpmodel.Json
module Corpus = Extr_corpus.Corpus
module Metrics = Extr_telemetry.Metrics
module Export = Extr_telemetry.Export
module Store = Extr_store.Store

let src = Logs.Src.create "extractocol.merge" ~doc:"Shard artifact merge"

module Log = (val Logs.src_log src : Logs.LOG)

type degradation = { md_app : string; md_reason : string; md_detail : string }

type t = {
  mg_config : string;
  mg_run : Runner.run;
  mg_finals : Runner.final list;  (* final record per merged app, corpus order *)
  mg_missing_shards : int list;
  mg_missing_apps : string list;
  mg_degradations : degradation list;
  mg_cache : (string * string) list;
  mg_expected : int;
}

let finished_key (fn : Runner.final) =
  match fn.Runner.fn_finished with
  | Some (_, Journal.Finished { ev_key; _ }) -> ev_key
  | _ -> ""

let merge ~(options : Runner.options) ~(entries : Corpus.entry list)
    ~(journals : string list) ?(cache_dirs = []) ?expect_shards () :
    (t, string) result =
  let base = Runner.config_fingerprint options in
  let degradations = ref [] in
  let degrade md_app md_reason md_detail =
    Log.warn (fun m -> m "%s: %s (%s)" md_reason md_detail md_app);
    degradations := { md_app; md_reason; md_detail } :: !degradations
  in
  (* Read every journal.  An unreadable or headerless-but-nonempty
     journal is quarantined; a zero-byte one (a shard that died between
     open and header — the stale-lock shape) is an empty shard.  A
     journal whose base fingerprint differs is a usage error: its
     results were computed under another configuration and must not be
     mixed in silently. *)
  let shards_seen = ref [] in
  let declared_n = ref None in
  let config_error = ref None in
  let sets =
    List.filter_map
      (fun path ->
        match Journal.read_lenient ~path with
        | Error msg ->
            degrade "" "journal unreadable" (path ^ ": " ^ msg);
            None
        | Ok (None, _, _) ->
            Log.info (fun m -> m "%s: empty journal, treating as empty shard" path);
            None
        | Ok (Some cfg, events, anomalies) ->
            (* Corrupt records are dropped, not trusted: the affected app
               either has a healthy record elsewhere in the shard set or
               surfaces as missing — both are honest shapes. *)
            List.iter
              (fun a ->
                degrade "" "journal record dropped"
                  (Fmt.str "%s: %a" path Journal.pp_anomaly a))
              anomalies;
            let cfg_base, shard = Runner.strip_shard cfg in
            if cfg_base <> base then begin
              if !config_error = None then
                config_error :=
                  Some
                    (Printf.sprintf
                       "%s: journal was written under a different \
                        configuration (%s, merge expects %s); results would \
                        not match"
                       path cfg_base base);
              None
            end
            else begin
              Option.iter
                (fun (k, n) ->
                  shards_seen := k :: !shards_seen;
                  declared_n :=
                    Some (max n (Option.value ~default:0 !declared_n)))
                shard;
              Some events
            end)
      journals
  in
  match !config_error with
  | Some msg -> Error msg
  | None ->
      (* The expected result set: the full corpus' identities, in corpus
         order — the same list every shard computed before filtering, so
         the merged envelope's app order is the unsharded run's. *)
      let identified = Runner.identify entries in
      let find k =
        Seq.filter_map (fun dir -> Store.lookup ~dir k) (List.to_seq cache_dirs)
      in
      let results = ref [] in
      let finals = ref [] in
      let missing_apps = ref [] in
      let cache = ref [] in
      let cache_keys = Hashtbl.create 64 in
      let keep (r : Runner.app_result) fn =
        let key = finished_key fn in
        (match r.Runner.ar_report_json with
        | Some data when not (Hashtbl.mem cache_keys key) ->
            Hashtbl.replace cache_keys key ();
            cache := (key, data) :: !cache
        | _ -> ());
        results := r :: !results;
        finals := fn :: !finals
      in
      (* Replay every journal, then report the holes: an app no journal
         finished is missing; a finished app whose report cannot be read
         keeps its journal status, loses its report, and degrades the
         merge. *)
      List.iter
        (fun { Runner.rp_final = fn; rp_result } ->
          let id = fn.Runner.fn_app in
          match rp_result with
          | Ok r -> keep r fn
          | Error (Runner.Report_missing r) ->
              degrade id "cache entry missing" (finished_key fn);
              keep r fn
          | Error (Runner.Report_corrupt (r, copies)) ->
              List.iter (degrade id "corrupt cache entry quarantined") copies;
              keep r fn
          | Error (Runner.Unknown_status status) ->
              Log.warn (fun m -> m "%s: unrecognized journal status %S" id status);
              missing_apps := id :: !missing_apps
          | Error (Runner.No_record | Runner.In_flight) ->
              missing_apps := id :: !missing_apps)
        (Runner.replay ~find ~expect:(List.map fst identified) sets);
      let results = List.rev !results in
      (* Shard coverage: [expect_shards] is authoritative when given;
         otherwise whatever N the surviving journals declared.  Journals
         with no shard suffix (an unsharded run, a merged journal)
         declare nothing, which is what makes merging a merged journal
         coverage-clean. *)
      let missing_shards =
        match (expect_shards, !declared_n) with
        | None, None -> []
        | Some n, _ | None, Some n ->
            List.filter
              (fun k -> not (List.mem k !shards_seen))
              (List.init n (fun i -> i + 1))
      in
      let run =
        {
          Runner.rn_results = results;
          rn_interrupted = false;
          rn_quarantined =
            List.filter_map
              (fun (a : Runner.app_result) ->
                if a.Runner.ar_status = Runner.Quarantined then
                  Some a.Runner.ar_app
                else None)
              results;
          rn_worker_spans = [];
        }
      in
      Ok
        {
          mg_config = base;
          mg_run = run;
          mg_finals = List.rev !finals;
          mg_missing_shards = missing_shards;
          mg_missing_apps = List.rev !missing_apps;
          mg_degradations = List.rev !degradations;
          mg_cache = List.rev !cache;
          mg_expected = List.length identified;
        }

(* Exit contract (documented in the CLI man page): the code reflects the
   health of the MERGE, not of the merged run — a cleanly merged corpus
   full of degraded apps still exits 0 here (the envelope carries the
   app statuses; --all already reported them live). *)
let exit_code t =
  if t.mg_missing_shards <> [] || t.mg_missing_apps <> [] then 4
  else if t.mg_degradations <> [] then 3
  else 0

(* ------------------------------------------------------------------ *)
(* Outputs                                                            *)
(* ------------------------------------------------------------------ *)

let json_str_list l =
  "[" ^ String.concat "," (List.map (fun s -> "\"" ^ Json.escape_string s ^ "\"") l) ^ "]"

let report_json t =
  let extra =
    (if t.mg_missing_shards = [] then []
     else
       [
         ( "missing_shards",
           "["
           ^ String.concat "," (List.map string_of_int t.mg_missing_shards)
           ^ "]" );
       ])
    @ (if t.mg_missing_apps = [] then []
       else [ ("missing_apps", json_str_list t.mg_missing_apps) ])
    @
    if t.mg_degradations = [] then []
    else
      [
        ( "merge_degradations",
          "["
          ^ String.concat ","
              (List.map
                 (fun d ->
                   Printf.sprintf
                     "{\"app\":\"%s\",\"reason\":\"%s\",\"detail\":\"%s\"}"
                     (Json.escape_string d.md_app)
                     (Json.escape_string d.md_reason)
                     (Json.escape_string d.md_detail))
                 t.mg_degradations)
          ^ "]" );
      ]
  in
  Runner.report_json ~extra ~config:t.mg_config t.mg_run

(* The merged journal: a header under the BASE fingerprint (no shard
   suffix — the merged artifact covers the whole corpus) followed by one
   Crashed record per quarantined app and one Finished record per app,
   in corpus order, every stamp carried over from the winning shard
   record.  The result reads back exactly like a runner-written journal
   — stats accepts it, and a further merge over it reproduces the same
   envelope (the idempotency the shard_check rule enforces). *)
let journal_contents t =
  let buf = Buffer.create 4096 in
  let add (stamp, ev) =
    Buffer.add_string buf (Journal.line_of_event ?stamp ev);
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Journal.header_line ~config:t.mg_config ());
  Buffer.add_char buf '\n';
  List.iter
    (fun (fn : Runner.final) ->
      (match fn.Runner.fn_finished with
      | Some (_, Journal.Finished { ev_status; _ })
        when ev_status = Runner.status_name Runner.Quarantined ->
          (* Replay the crash before its Finished record, as the live
             runner journals them, so --resume and stats recover the
             crash phase/exn from the merged journal too. *)
          Option.iter add fn.Runner.fn_crash
      | _ -> ());
      Option.iter add fn.Runner.fn_finished)
    t.mg_finals;
  Buffer.contents buf

(* Union of the shards' metrics snapshots: parse each exported JSON back
   into samples and fold them through Metrics.merge_samples — the same
   commutative union the pool coordinator applies to worker deltas, so
   N shard snapshots merge exactly like N workers' shipments. *)
let sample_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let num k =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  match (str "name", str "kind") with
  | Some sa_name, Some kind ->
      let sa_kind =
        match kind with
        | "counter" -> Some `Counter
        | "gauge" -> Some `Gauge
        | "histogram" -> Some `Histogram
        | _ -> None
      in
      Option.map
        (fun sa_kind ->
          let sa_labels =
            match Json.member "labels" j with
            | Some (Json.Obj fields) ->
                List.filter_map
                  (function k, Json.Str v -> Some (k, v) | _ -> None)
                  fields
            | _ -> []
          in
          let sa_buckets =
            match Json.member "buckets" j with
            | Some (Json.List bs) ->
                List.filter_map
                  (fun b ->
                    let bound =
                      match Json.member "le" b with
                      | Some (Json.Float f) -> Some f
                      | Some (Json.Int n) -> Some (float_of_int n)
                      | Some (Json.Str "+inf") -> Some infinity
                      | _ -> None
                    in
                    let n =
                      match Json.member "n" b with
                      | Some (Json.Int n) -> Some n
                      | _ -> None
                    in
                    match (bound, n) with
                    | Some le, Some n -> Some (le, n)
                    | _ -> None)
                  bs
            | _ -> []
          in
          {
            Metrics.sa_name;
            sa_kind;
            sa_help = "";
            sa_labels;
            sa_count =
              (match Json.member "count" j with
              | Some (Json.Int n) -> n
              | _ -> 0);
            sa_sum = Option.value ~default:0.0 (num "sum");
            sa_buckets;
          })
        sa_kind
  | _ -> None

let samples_of_metrics_json contents =
  match Json.of_string_opt contents with
  | None -> Error "metrics file is not valid JSON"
  | Some j -> (
      match Json.member "metrics" j with
      | Some (Json.List series) -> Ok (List.filter_map sample_of_json series)
      | _ -> Error "metrics file has no metrics[] series")

let merge_metrics paths : (string, string) result =
  let registry = Metrics.create ~enabled:true () in
  let rec fold = function
    | [] -> Ok (Export.metrics_json registry)
    | path :: rest -> (
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error msg -> Error msg
        | contents -> (
            match samples_of_metrics_json contents with
            | Error msg -> Error (path ^ ": " ^ msg)
            | Ok samples ->
                Metrics.merge_samples registry samples;
                fold rest))
  in
  fold paths
