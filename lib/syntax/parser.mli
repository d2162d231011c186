(** Parser for the declaration language:

    {v
    # schemas: attribute types are int, string, bool, or enum(v1, ..., vk)
    schema R1(AC: string, city: string, zip: string);

    # CFDs, in the general form of Definition 2.1 (normalised on parsing);
    # '_' entries are written by just naming the attribute
    cfd R1([AC='20'] -> [city='LDN']);
    cfd R1([zip] -> [street]);

    # attribute-equality view CFDs
    cfd V(CC == AC);

    # conditional inclusion dependencies (CINDs)
    cind Orders([cust]; [status='active']) <= Customers([id]; []);

    # data: tuples for a declared relation (used by `cfdprop audit`)
    data R1 = ('20', 'LDN', 'W1B'), ('20', 'LDN', 'SW1');

    # SPC views in normal form: atoms, selection, constants, projection
    view V = from [R1(AC, city, zip)]
             where [AC='20']
             constants [CC='44']
             project [CC, AC, city];
    v} *)

open Relational

type document = {
  schema : Schema.db;
  cfds : Cfds.Cfd.t list;
  cinds : Cfds.Cind.t list;
  views : Spc.t list;
  data : Database.t;
}

(** [parse_document text] parses a whole declaration file.  It never
    raises: bad input, including a declaration that a smart constructor
    rejects (a duplicate attribute, an empty enum) and a CFD that names an
    attribute its declared relation or view lacks ({!Cfds.Cfd.check}), is
    an [Error] with a message.  A lexical error anywhere in [text] is
    reported in preference to an earlier parse error. *)
val parse_document : string -> (document, string) result

(** Printers producing parseable text (inverses of the parser). *)

val print_schema : Schema.relation Fmt.t
val print_cfd : Cfds.Cfd.t Fmt.t
val print_cind : Cfds.Cind.t Fmt.t
val print_view : Spc.t Fmt.t
val print_document : document Fmt.t
