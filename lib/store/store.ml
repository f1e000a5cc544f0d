(* Content-addressed result cache.

   The address of an analysis result is a digest over everything that
   determines it: the app content (the textual Limple program is the
   canonical serialization — the printer/parser round-trip guarantees it
   captures the whole program), the analysis configuration fingerprint,
   and a bumpable implementation version.  Any change to any of the
   three moves the address, so stale entries are never *invalidated*,
   only orphaned — the cache needs no eviction protocol to stay
   correct. *)

module Ir = Extr_ir.Types
module Pp = Extr_ir.Pp
module Apk = Extr_apk.Apk
module Export = Extr_telemetry.Export
module Metrics = Extr_telemetry.Metrics
module Fault = Extr_resilience.Fault

let src = Logs.Src.create "extractocol.store" ~doc:"Content-addressed result cache"

module Log = (val Logs.src_log src : Logs.LOG)

(* Bump on any change that alters the pipeline's output for an unchanged
   input (the report JSON shape counts: cached entries are served
   verbatim). *)
let analysis_version = 1

type key = string

(* Backslash-escape [\\], newline and every character of [special] in a
   header field, so that field and record separators stay unambiguous and
   the header is injective.  A field holding none of them (every corpus
   field) is appended as-is, which keeps existing keys stable. *)
let add_escaped buf ~special s =
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when String.contains special c ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | c -> Buffer.add_char buf c)
    s

let key ?(version = analysis_version) ~config (apk : Apk.t) : key =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "version=%d\nconfig=%s\nmanifest=" version config;
  let mf = apk.Apk.manifest in
  add_escaped buf ~special:"|" mf.Apk.mf_package;
  Buffer.add_char buf '|';
  add_escaped buf ~special:"|" mf.Apk.mf_label;
  Buffer.add_char buf '|';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      add_escaped buf ~special:"|," a)
    mf.Apk.mf_activities;
  Buffer.add_char buf '\n';
  List.iter
    (fun (id, s) ->
      Printf.bprintf buf "res=%d:" id;
      add_escaped buf ~special:"" s;
      Buffer.add_char buf '\n')
    apk.Apk.resources;
  Pp.add_program buf apk.Apk.program;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key_to_string k = k

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let key_of_string s =
  if String.length s = 32 && String.for_all is_hex s then Some s else None

type t = { st_dir : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let m_temps_swept =
  Metrics.counter ~help:"orphaned temp files removed on cache open"
    "cache.temps.swept"

let open_ ?(sweep_age_s = 3600.) ~dir () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  (* A writer SIGKILLed between temp and rename leaves an orphan; the
     cache directory is the long-lived artifact directory those
     accumulate in, so runner/merge startup is the natural GC point. *)
  let swept = Export.sweep_temps ~max_age_s:sweep_age_s ~dir () in
  if swept > 0 then begin
    if Metrics.is_enabled Metrics.default then
      Metrics.incr ~by:swept m_temps_swept;
    Log.info (fun m -> m "%s: swept %d orphaned temp file(s)" dir swept)
  end;
  { st_dir = dir }

let dir t = t.st_dir

(* The on-disk layout of one entry; nothing outside this module knows it. *)
let entry_path dir k = Filename.concat dir (k ^ ".json")


let m_hits =
  Metrics.counter ~help:"result-cache lookups that found an entry" "cache.hits"

let m_misses =
  Metrics.counter ~help:"result-cache lookups that found nothing"
    "cache.misses"

let m_corrupt =
  Metrics.counter
    ~help:"cache entries that failed their content digest (served as misses)"
    "cache.corrupt"

(* ------------------------------------------------------------------ *)
(* Entry integrity                                                    *)
(* ------------------------------------------------------------------ *)

(* Entries are sealed with a one-line header ["%EXTR1 <md5hex>\n"]
   covering the payload, verified on every read.  A mismatch — bit rot,
   a torn write from a lying filesystem — makes the entry a miss (plus
   a warning and the cache.corrupt counter), never a wrong answer: the
   app simply re-runs and the fresh store heals the entry.  Headerless
   entries (caches from before integrity existed) are served as-is. *)

let integrity = ref true
let set_integrity b = integrity := b

let magic = "%EXTR1 "
let header_len = String.length magic + 32 + 1  (* digest hex + '\n' *)

let seal contents = magic ^ Digest.to_hex (Digest.string contents) ^ "\n" ^ contents

let decode raw =
  let n = String.length raw in
  if n < String.length magic || String.sub raw 0 (String.length magic) <> magic
  then Result.Ok raw
  else if n < header_len || raw.[header_len - 1] <> '\n' then
    Result.Error "malformed integrity header"
  else
    let digest = String.sub raw (String.length magic) 32 in
    let payload = String.sub raw header_len (n - header_len) in
    if String.for_all is_hex digest
       && Digest.to_hex (Digest.string payload) = digest
    then Result.Ok payload
    else Result.Error "content digest mismatch"

let flip_byte s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  end

let find t k =
  let path = entry_path t.st_dir k in
  let raw =
    if Sys.file_exists path then
      try Some (In_channel.with_open_text path In_channel.input_all)
      with Sys_error msg ->
        Log.warn (fun m -> m "unreadable cache entry %s: %s" path msg);
        None
    else None
  in
  let raw =
    match Fault.fire "store.read" with
    | Some "miss" -> None
    | Some "bitflip" -> Option.map flip_byte raw
    | Some _ | None -> raw
  in
  let hit =
    match raw with
    | None -> None
    | Some raw -> (
        match decode raw with
        | Result.Ok payload -> Some payload
        | Result.Error reason ->
            Log.warn (fun m ->
                m "corrupt cache entry %s (%s); treating as a miss" path reason);
            if Metrics.is_enabled Metrics.default then Metrics.incr m_corrupt;
            None)
  in
  if Metrics.is_enabled Metrics.default then
    Metrics.incr (match hit with Some _ -> m_hits | None -> m_misses);
  hit

let store t k contents =
  let data = if !integrity then seal contents else contents in
  let data =
    match Fault.fire "store.write" with
    | Some "bitflip" -> Some (flip_byte data)
    | Some "drop" -> None
    | Some _ | None -> Some data
  in
  match data with
  | Some data -> Export.write_file (entry_path t.st_dir k) data
  | None -> ()

(* The one entry listing: every [*.json] file under [dir] (write temps
   are dot-prefixed, so a mid-write temp never counts), sorted.  [None]
   when the directory cannot be read. *)
let entries ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | names ->
      Array.sort compare names;
      Some
        (List.filter
           (fun name -> Filename.check_suffix name ".json" && name.[0] <> '.')
           (Array.to_list names))

(* Read-only probe for offline readers: no metrics, no fault site, so
   inspecting artifacts never perturbs a run's counters or injections. *)
let lookup ~dir k =
  let path = entry_path dir k in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | raw ->
      let verdict = decode raw in
      Result.iter_error
        (fun reason -> Log.warn (fun m -> m "%s: corrupt cache entry (%s)" path reason))
        verdict;
      Some (path, verdict)

(* Offline integrity audit for [stats --verify]: decode every entry in
   a cache directory without serving it. *)
let audit ~dir =
  let names = Option.value ~default:[] (entries ~dir) in
  let corrupt =
    List.filter_map
      (fun name ->
        match In_channel.with_open_text (Filename.concat dir name) In_channel.input_all with
        | exception Sys_error msg -> Some (name, msg)
        | raw -> (
            match decode raw with
            | Result.Ok _ -> None
            | Result.Error reason -> Some (name, reason)))
      names
  in
  (List.length names, corrupt)
