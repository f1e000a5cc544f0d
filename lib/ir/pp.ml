(* Textual Limple printer.  The output is accepted by {!Parser}, so programs
   round-trip between in-memory and textual forms.  Method bodies declare
   every local with its type up front so the parser can reconstruct typed
   variables without inference.

   Every printer appends straight to a [Buffer.t]: the text is also the
   cache-key material ([Store.key] digests it for every app of a farm run),
   so it is built in one pass with no intermediate strings.  Each sequence
   of appends below reads left to right as the text it produces. *)

open Types

let add = Buffer.add_string
let addc = Buffer.add_char

let rec add_ty buf = function
  | Void -> add buf "void"
  | Int -> add buf "int"
  | Bool -> add buf "bool"
  | Str -> add buf "str"
  | Obj c -> add buf c
  | Arr t -> add_ty buf t; add buf "[]"

(* String constants use OCaml lexical syntax ([String.escaped] between
   double quotes), which {!Parser} reads back. *)
let add_const buf = function
  | Cint n -> add buf (string_of_int n)
  | Cbool b -> add buf (string_of_bool b)
  | Cstr s -> addc buf '"'; add buf (String.escaped s); addc buf '"'
  | Cnull -> add buf "null"

let add_value buf = function
  | Const c -> add_const buf c
  | Local v -> add buf v.vname

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

(* [f x1, f x2, ...] *)
let add_comma_list buf f = function
  | [] -> ()
  | x :: rest -> f buf x; List.iter (fun y -> add buf ", "; f buf y) rest

(* [<cls:fname:ty>] *)
let add_field_ref buf (f : field_ref) =
  addc buf '<'; add buf f.fcls; addc buf ':'; add buf f.fname; addc buf ':';
  add_ty buf f.fty; addc buf '>'

(* [virtual base.<cls.m:ret>(args)], or [static <cls.m:ret>(args)]. *)
let add_invoke buf { ikind; iref; ibase; iargs } =
  add buf
    (match ikind with
    | Virtual -> "virtual "
    | Special -> "special "
    | Static -> "static ");
  (match ibase with Some b -> add buf b.vname; addc buf '.' | None -> ());
  addc buf '<'; add buf iref.mcls; addc buf '.'; add buf iref.mname;
  addc buf ':'; add_ty buf iref.mret; add buf ">(";
  add_comma_list buf add_value iargs; addc buf ')'

(* [x.<cls:f:ty>] and [a[i]]: instance field and array element, read or
   written. *)
let add_ifield buf x f = add buf x.vname; addc buf '.'; add_field_ref buf f

let add_elem buf a i =
  add buf a.vname; addc buf '['; add_value buf i; addc buf ']'

let add_expr buf = function
  | Val v -> add_value buf v
  | Binop (op, a, b) ->
      add_value buf a; addc buf ' '; add buf (binop_symbol op); addc buf ' ';
      add_value buf b
  | New c -> add buf "new "; add buf c
  | NewArr (t, n) ->
      add buf "newarray "; add_ty buf t; addc buf '['; add_value buf n;
      addc buf ']'
  | IField (x, f) -> add_ifield buf x f
  | SField f -> add_field_ref buf f
  | AElem (a, i) -> add_elem buf a i
  | ALen a -> add buf "lengthof "; add buf a.vname
  | Invoke i -> add_invoke buf i
  | Cast (t, v) -> addc buf '('; add_ty buf t; add buf ") "; add_value buf v

let add_lhs buf = function
  | Lvar v -> add buf v.vname
  | Lfield (x, f) -> add_ifield buf x f
  | Lsfield f -> add_field_ref buf f
  | Lelem (a, i) -> add_elem buf a i

let add_stmt buf = function
  | Assign (l, e) -> add_lhs buf l; add buf " = "; add_expr buf e
  | InvokeStmt i -> add_invoke buf i
  | If (v, l) -> add buf "if "; add_value buf v; add buf " goto "; add buf l
  | Goto l -> add buf "goto "; add buf l
  | Lab l -> add buf "label "; add buf l
  | Return None -> add buf "return"
  | Return (Some v) -> add buf "return "; add_value buf v
  | Nop -> add buf "nop"

(** Locals referenced by a body, excluding parameters and [this]. *)
let body_locals (m : meth) =
  let seen = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace seen v.vname ()) m.m_params;
  if not m.m_static then Hashtbl.replace seen "this" ();
  let acc = ref [] in
  let visit v =
    if not (Hashtbl.mem seen v.vname) then begin
      Hashtbl.replace seen v.vname ();
      acc := v :: !acc
    end
  in
  Array.iter
    (fun s ->
      (match stmt_def s with Some v -> visit v | None -> ());
      List.iter visit (stmt_uses s))
    m.m_body;
  List.rev !acc

(* [ty name]: a parameter, or the tail of a local declaration. *)
let add_typed_var buf v = add_ty buf v.vty; addc buf ' '; add buf v.vname

let add_meth buf (m : meth) =
  add buf (if m.m_static then "  static " else "  ");
  add_ty buf m.m_ret; addc buf ' '; add buf m.m_name; addc buf '(';
  add_comma_list buf add_typed_var m.m_params; add buf ") {\n";
  List.iter
    (fun v -> add buf "    local "; add_typed_var buf v; add buf ";\n")
    (body_locals m);
  Array.iter (fun s -> add buf "    "; add_stmt buf s; add buf ";\n") m.m_body;
  add buf "  }\n"

let add_field_decl buf (f : field) =
  add buf (if f.f_static then "  static field " else "  field ");
  add_ty buf f.f_ty; addc buf ' '; add buf f.f_name; add buf ";\n"

let add_cls buf (c : cls) =
  add buf (if c.c_library then "library class " else "class ");
  add buf c.c_name;
  (match c.c_super with Some s -> add buf " extends "; add buf s | None -> ());
  add buf " {\n";
  List.iter (add_field_decl buf) c.c_fields;
  List.iter (add_meth buf) c.c_methods;
  add buf "}\n"

let add_program buf (p : program) =
  List.iter
    (fun e ->
      add buf "entry "; add buf e.mcls; addc buf '.'; add buf e.mname;
      add buf ";\n")
    p.p_entries;
  List.iter (add_cls buf) p.p_classes

let to_string f x =
  let buf = Buffer.create 256 in
  f buf x;
  Buffer.contents buf

let program_to_string p = to_string add_program p
let stmt_to_string s = to_string add_stmt s
let ty_to_string t = to_string add_ty t
