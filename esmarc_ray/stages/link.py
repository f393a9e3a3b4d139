"""Entity-link scoring stage: a stateless task map over broadcast indexes.

The reference chains six single-process "enrichment bots" over stdin/stdout,
each doing per-record lookups against external stores (reference
enrichment/entityfacts.py, wikidata.py, wikipedia.py, geonames.py,
gnd_sachgruppen.py — see SURVEY.md §2.4).  Here the joins run inside one
task-pool ``map_batches``, which Ray fuses with the extract map before it:

* the small side ships as Arrow tables in one ``ray.put`` object ref
  (:func:`build_link_indexes`); each worker process resolves it once and
  caches the :class:`EntityLinker` built over it (``_link_batch``), whose
  constructor builds the hash indexes (GND→links, extid→QID, QID→sitelinks,
  GND→subjects) and the geohash-bucketed geonames index column by column —
  never re-shipped per batch;
* each batch is enriched in place (doc_json rewritten), with an
  ``n_links_added`` column for link-recall scoring.

Link semantics mirror the bots:
* entityfacts: add sameAs links for a resolved GND id, keep only when the
  link set actually grew (entityfacts.py:109-154);
* wikidata: ANY of the reference's 10 identifier-URI prefixes (VIAF / GND /
  ISNI / LoC / DDB / BnF / geonames / filmportal / ORCID / SWB) resolves a
  QID appended as a wikidata sameAs (wikidata.py:10-30,33-80);
* wikipedia: QID → per-language sitelinks + multilingual names, with stale
  links from obsolete sources (hub.culturegraph.org) replaced in place
  (wikipedia.py:25,68-159);
* wikipedia_categories: wikipedia sameAs link → per-language category nodes
  under doc["category"][cc] (wikipedia_categories.py:21-82);
* gnd_sachgruppen: GND → subject categories via the 2-hop fieldOfStudy→DDC
  resolution (gnd_sachgruppen.py:39-84);
* geonames: lat/lon within ~0.1 km AND name-substring match
  (geonames.py:46-76) — the one non-hash join, served from a geohash-style
  bucket index.
"""

from __future__ import annotations

import json
import math

import pyarrow as pa
import ray
import ray.data

from esmarc_ray.values import to_json


def _bucket(lat: float, lon: float) -> tuple[int, int]:
    """~0.01° grid cell (~1.1 km) — candidate bucket for the geo join."""
    return (int(lat * 100), int(lon * 100))


# identifier-URI prefix → value delimiter, mirroring the reference's wikidata
# property table (enrichment/wikidata.py:10-30): any sameAs id matching one of
# these prefixes can resolve a QID, not just the GND id
_WD_EXT_PREFIXES = {
    "http://viaf.org": "/",
    "https://d-nb.info/gnd": "/",
    "http://isni.org": "/",
    "http://id.loc.gov": "/",
    "https://deutsche-digitale-bibliothek.de": "/",
    "http://catalogue.bnf.fr/ark": "/cb",
    "http://geonames.org": "/",
    "http://filmportal.de/person": "/",
    "http://orcid.org": "/",
    "http://swb.bsz-bw.de/DB=2.1/PPNSET?PPN=": "=",
}

# data sources whose stale wikipedia links get REPLACED when wikidata serves a
# fresh sitelink (reference enrichment/wikipedia.py:25,144-146)
_OBSOLETE_ISBASEDON_HOSTS = ("hub.culturegraph.org",)


def _norm_prefix(prefix: str) -> str:
    return prefix.rstrip("/=")


# table -> the columns the linker reads from it
_LINK_COLUMNS = {
    "ef_links": ("gnd_id", "links"),
    "wd_xref": ("ext_uri_prefix", "ext_value", "qid"),
    "wp_sites": ("qid", "site", "url", "title"),
    "gnd_subjects": ("gnd_id", "subject_category", "ddc3"),
    "geonames": ("geoname_id", "name", "lat", "lon"),
    "wp_categories": ("cc", "article_title", "pages"),
}


def build_link_indexes(tables: dict[str, pa.Table]) -> dict[str, pa.Table]:
    """The lookup tables as the linker ships them: Arrow, cut to the columns
    it reads.  Cheap on the driver and for ``ray.put`` (Arrow buffers pickle
    as bytes); :class:`EntityLinker` builds its hash and bucket indexes from
    them, once per worker process (``_link_batch``)."""
    out = {}
    for name, columns in _LINK_COLUMNS.items():
        if name == "wp_categories" and name not in tables:
            continue  # optional: no category enrichment
        table = tables[name]
        if table.num_rows and set(columns) <= set(table.column_names):
            table = table.select(list(columns))
        out[name] = table.combine_chunks()
    return out


def _column(table: pa.Table, name: str) -> list:
    """One column as a Python list, through numpy where that is exact."""
    if not table.num_rows:
        return []
    col = table.column(name).combine_chunks()
    if pa.types.is_list(col.type):
        if col.null_count:
            return col.to_pylist()
        values = _column(pa.table({name: col.flatten()}), name)
        bounds = col.offsets.to_pylist()
        base = bounds[0]
        return [values[lo - base : hi - base] for lo, hi in zip(bounds, bounds[1:])]
    if col.null_count and not pa.types.is_string(col.type):
        return col.to_pylist()  # numpy would turn null numbers into NaN
    return col.to_numpy(zero_copy_only=False).tolist()


def _nested_column(table: pa.Table, name: str, fields: tuple[str, ...]) -> list:
    """A list<struct> column as per-row lists of field tuples (None for a
    null list), without building a dict per struct."""
    if not table.num_rows:
        return []
    col = table.column(name).combine_chunks()
    flat = col.flatten()
    if col.null_count or flat.null_count:
        return [
            None if row is None else [None if x is None else tuple(x[f] for f in fields) for x in row]
            for row in col.to_pylist()
        ]
    bounds = col.offsets.to_pylist()
    base = bounds[0]
    values = list(zip(*(_column(pa.table({f: flat.field(f)}), f) for f in fields)))
    return [values[lo - base : hi - base] for lo, hi in zip(bounds, bounds[1:])]


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    radius = 6371.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = math.radians(lat2 - lat1), math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * radius * math.asin(math.sqrt(a))


class EntityLinker:
    """Per-batch callable: enrich entity docs against the link indexes."""

    def __init__(self, indexes: dict[str, pa.Table]):
        """Build the lookups from :func:`build_link_indexes`' tables, column
        by column; rows are tuples of the fields the link steps read."""
        ef = indexes["ef_links"]
        # gnd_id -> [(id, abbr, name), ...]
        self._ef = dict(zip(_column(ef, "gnd_id"), _nested_column(ef, "links", ("id", "abbr", "name"))))
        wd = indexes["wd_xref"]
        norm = {prefix: _norm_prefix(prefix) for prefix in set(_column(wd, "ext_uri_prefix"))}
        # (normalized prefix, ext value) -> qid
        self._wd = dict(
            zip(
                zip(map(norm.__getitem__, _column(wd, "ext_uri_prefix")), _column(wd, "ext_value")),
                _column(wd, "qid"),
            )
        )
        wp = indexes["wp_sites"]
        # qid -> [(site, url, title), ...]
        self._wp: dict[str, list] = {}
        for qid, row in zip(
            _column(wp, "qid"), zip(_column(wp, "site"), _column(wp, "url"), _column(wp, "title"))
        ):
            self._wp.setdefault(qid, []).append(row)
        subjects = indexes["gnd_subjects"]
        # gnd_id -> (subject categories, ddc3 codes)
        self._subjects = dict(
            zip(
                _column(subjects, "gnd_id"),
                zip(_column(subjects, "subject_category"), _column(subjects, "ddc3")),
            )
        )
        geo = indexes["geonames"]
        # ~1 km bucket -> [(lat, lon, name, geoname_id), ...]
        self._geo: dict[tuple[int, int], list] = {}
        rows = zip(_column(geo, "lat"), _column(geo, "lon"), _column(geo, "name"), _column(geo, "geoname_id"))
        for row in rows:
            self._geo.setdefault(_bucket(row[0], row[1]), []).append(row)
        cats = indexes.get("wp_categories")
        # (cc, article title) -> [(page_id, title), ...]
        self._cats = (
            dict(
                zip(
                    zip(_column(cats, "cc"), _column(cats, "article_title")),
                    _nested_column(cats, "pages", ("page_id", "title")),
                )
            )
            if cats is not None
            else {}
        )
        # candidate gate: a doc with no GND id can only be enriched if its
        # raw JSON mentions a geo node, a wikipedia link, or one of the
        # wikidata ext-id prefixes — one compiled scan beats a parse+dump
        # round-trip for the (majority) unenrichable docs
        import re

        markers = ['"geo"', "wikipedia"] + list(_WD_EXT_PREFIXES)
        self._gate = re.compile("|".join(re.escape(m) for m in markers))

    # -- per-doc link steps ---------------------------------------------------

    def _entityfacts(self, doc: dict, gnd_ids: list[str]) -> int:
        added = 0
        same_as = doc.get("sameAs")
        if same_as is None:
            same_as = []
        if isinstance(same_as, dict):
            same_as = [same_as]
        known = {link.get("@id") for link in same_as if isinstance(link, dict)}
        for gnd_id in gnd_ids:
            for link_id, abbr, name in self._ef.get(gnd_id, []):
                if link_id not in known:
                    same_as.append(
                        {
                            "@id": link_id,
                            "publisher": {"abbr": abbr, "preferredName": name},
                            "isBasedOn": {"@type": "Dataset", "@id": doc.get("isBasedOn", "")},
                        }
                    )
                    known.add(link_id)
                    added += 1
        if added:
            doc["sameAs"] = same_as
        return added

    def _ext_id_pairs(self, doc: dict, gnd_ids: list[str]) -> list[tuple[str, str]]:
        """All (normalized prefix, value) identifier pairs the doc carries:
        its GND ids plus every sameAs id matching one of the reference's 10
        wikidata property prefixes (enrichment/wikidata.py:33-56)."""
        pairs = [("https://d-nb.info/gnd", g) for g in gnd_ids]
        same_as = doc.get("sameAs") or []
        if isinstance(same_as, dict):
            same_as = [same_as]
        for link in same_as:
            uri = link.get("@id") if isinstance(link, dict) else (
                link if isinstance(link, str) else None
            )
            if not uri:
                continue
            for prefix, delim in _WD_EXT_PREFIXES.items():
                if uri.startswith(prefix):
                    pairs.append((_norm_prefix(prefix), uri.split(delim)[-1]))
                    break
        return pairs

    def _wikidata_wikipedia(self, doc: dict, gnd_ids: list[str]) -> int:
        from urllib.parse import urlparse

        added = 0
        qids: list[str] = []
        seen: set = set()
        for pair in self._ext_id_pairs(doc, gnd_ids):
            if pair in seen:
                continue
            seen.add(pair)
            qid = self._wd.get(pair)
            if qid and qid not in qids:
                qids.append(qid)
        for qid in qids:
            wd_uri = f"http://www.wikidata.org/entity/{qid}"
            same_as = doc.setdefault("sameAs", [])
            if isinstance(same_as, dict):
                same_as = [same_as]
                doc["sameAs"] = same_as
            if all(link.get("@id") != wd_uri for link in same_as if isinstance(link, dict)):
                same_as.append(
                    {
                        "@id": wd_uri,
                        "publisher": {"abbr": "WIKIDATA", "preferredName": "Wikidata"},
                        "isBasedOn": {"@type": "Dataset", "@id": doc.get("isBasedOn", "")},
                    }
                )
                added += 1
            # per-publisher-abbr position map of the existing sameAs links
            # (reference wikipedia.py:48-66 build_abbrevs): lets a stale link
            # from an obsolete source be REPLACED in place
            abbrevs: dict[str, dict] = {}
            for pos, link in enumerate(same_as):
                if not isinstance(link, dict):
                    continue
                abbr = (link.get("publisher") or {}).get("abbr")
                if not abbr:
                    continue
                based = (link.get("isBasedOn") or {}).get("@id") or ""
                abbrevs[abbr] = {"host": urlparse(based).hostname or "", "pos": pos}
            for site, url, title in self._wp.get(qid, []):
                abbr = f"WP-{site}"
                new_link = {
                    "@id": url,
                    "publisher": {"abbr": abbr, "preferredName": "Wikipedia"},
                    "isBasedOn": {"@type": "Dataset", "@id": wd_uri},
                }
                if abbr not in abbrevs:
                    same_as.append(new_link)
                    abbrevs[abbr] = {"host": "www.wikidata.org", "pos": len(same_as) - 1}
                    added += 1
                elif abbrevs[abbr]["host"] in _OBSOLETE_ISBASEDON_HOSTS:
                    # stale source (e.g. hub.culturegraph.org): update in place
                    # (reference wikipedia.py:144-146)
                    same_as[abbrevs[abbr]["pos"]] = new_link
                    abbrevs[abbr]["host"] = "www.wikidata.org"
                    added += 1
                # multilingual name enrichment (reference wikipedia.py:148-157)
                doc.setdefault("name", {})
                if isinstance(doc["name"], dict) and site not in doc["name"]:
                    doc["name"][site] = title
                    added += 1
        return added

    def _wp_categories(self, doc: dict) -> int:
        """Category enrichment from the doc's wikipedia sameAs links (reference
        enrichment/wikipedia_categories.py:21-82): per country code, merge
        {@id: …?curid=<page>, sameAs: <category page>, name: <after colon>}
        nodes under doc["category"][cc] with litter-style dedup."""
        from urllib.parse import unquote

        from esmarc_ray.values import merge_value

        same_as = doc.get("sameAs") or []
        if isinstance(same_as, dict):
            same_as = [same_as]
        added = 0
        for link in same_as:
            uri = link.get("@id") if isinstance(link, dict) else None
            if not uri or "wikipedia" not in uri:
                continue
            cc = uri.split("/")[2].split(".")[0]
            title = unquote(uri.split("/")[-1])
            pages = self._cats.get((cc, title))
            if not pages:
                continue
            base = f"https://{cc}.wikipedia.org/wiki/"
            bucket = doc.setdefault("category", {})
            for page_id, page_title in pages:
                obj = {
                    "@id": base + f"?curid={page_id}",
                    "sameAs": base + page_title.replace(" ", "_"),
                    "name": ":".join(page_title.split(":")[1:]),
                }
                current = bucket.get(cc)
                known = current if isinstance(current, list) else ([current] if current else [])
                if obj not in known:
                    added += 1
                bucket[cc] = merge_value(current, obj)
        return added

    def _gnd_subjects(self, doc: dict, gnd_ids: list[str]) -> int:
        added = 0
        for gnd_id in gnd_ids:
            entry = self._subjects.get(gnd_id)
            if not entry:
                continue
            about = doc.setdefault("about", [])
            if isinstance(about, dict):
                about = [about]
                doc["about"] = about
            categories, ddcs = entry
            for category, ddc in zip(categories, ddcs):
                node = {
                    "name": category,
                    "identifier": {"@type": "PropertyValue", "propertyID": "DDC", "value": ddc},
                }
                if node not in about:
                    about.append(node)
                    added += 1
        return added

    def _geonames(self, doc: dict) -> int:
        geo = doc.get("geo")
        if not isinstance(geo, dict) or "latitude" not in geo or "longitude" not in geo:
            return 0
        try:
            lat, lon = float(geo["latitude"]), float(geo["longitude"])
        except (TypeError, ValueError):
            return 0
        name = doc.get("preferredName") or ""
        cell = _bucket(lat, lon)
        added = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for row_lat, row_lon, row_name, geoname_id in self._geo.get(
                    (cell[0] + dx, cell[1] + dy), []
                ):
                    if _haversine_km(lat, lon, row_lat, row_lon) > 0.1:
                        continue
                    if name and name not in row_name and row_name not in name:
                        continue
                    uri = f"https://sws.geonames.org/{geoname_id}/"
                    same_as = doc.setdefault("sameAs", [])
                    if isinstance(same_as, dict):
                        same_as = [same_as]
                        doc["sameAs"] = same_as
                    if all(link.get("@id") != uri for link in same_as if isinstance(link, dict)):
                        same_as.append(
                            {
                                "@id": uri,
                                "publisher": {"abbr": "GEONAMES", "preferredName": "GeoNames"},
                                "isBasedOn": {"@type": "Dataset", "@id": doc.get("isBasedOn", "")},
                            }
                        )
                        added += 1
        return added

    # -- batch entry ------------------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_jsons = batch.column("doc_json").to_pylist()
        gnd_lists = batch.column("gnd_ids").to_pylist()
        classes = batch.column("entity_class").to_pylist()
        out_json: list[str] = []
        n_added: list[int] = []
        for doc_json, gnd_ids, entity in zip(doc_jsons, gnd_lists, classes):
            if entity in ("_error", "_dropped") or not doc_json:
                out_json.append(doc_json)
                n_added.append(0)
                continue
            if not gnd_ids and not self._gate.search(doc_json):
                # provably unenrichable: skip the JSON round-trip entirely
                out_json.append(doc_json)
                n_added.append(0)
                continue
            doc = json.loads(doc_json)
            added = self._entityfacts(doc, gnd_ids or [])
            added += self._wikidata_wikipedia(doc, gnd_ids or [])
            added += self._wp_categories(doc)
            added += self._gnd_subjects(doc, gnd_ids or [])
            added += self._geonames(doc)
            # unchanged docs keep their original serialization — the dump is
            # a measurable cost and byte-identity helps downstream dedup
            out_json.append(
                to_json(doc) if added else doc_json
            )
            n_added.append(added)
        table = batch.set_column(
            batch.schema.get_field_index("doc_json"), "doc_json", pa.array(out_json, pa.string())
        )
        return table.append_column("n_links_added", pa.array(n_added, pa.int32()))


# the linker this worker process built last: (index object id, EntityLinker)
# — at most one entry, replaced when a later dataset links against another
# index.  Keyed by the ref's id, not the ref, so an idle worker does not keep
# the index pinned in the object store.
_CACHED_LINKER: tuple[bytes, EntityLinker] | None = None


def _link_batch(batch: pa.Table, *, indexes_ref: ray.ObjectRef) -> pa.Table:
    """Task-pool UDF: link one batch with this worker's cached linker."""
    global _CACHED_LINKER
    key = indexes_ref.binary()
    if _CACHED_LINKER is None or _CACHED_LINKER[0] != key:
        _CACHED_LINKER = None  # drop the old index before resolving the new one
        _CACHED_LINKER = (key, EntityLinker(ray.get(indexes_ref)))
    return _CACHED_LINKER[1](batch)


def link_entities(
    docs: ray.data.Dataset,
    indexes_ref: ray.ObjectRef,
    *,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Link the entity-doc dataset with a stateless task-pool ``map_batches``
    over whole blocks, one CPU per task.

    ``indexes_ref`` should be ``ray.put(build_link_indexes(tables))`` — one
    object-store copy, resolved once per worker process.  ``concurrency``
    caps the number of concurrent link tasks; ``None`` leaves it uncapped,
    so Ray fuses the link map with the read and extract maps before it (and
    the sink after it) into one task operator.  A cap keeps link its own
    operator: perfbench pins ``link_concurrency=1``, so its phase 1 runs
    ``ReadParquet->MapBatches(extract)`` and then ``MapBatches(_link_batch)``.
    """
    if concurrency is not None and not isinstance(concurrency, int):
        raise TypeError(
            "link_entities runs a task pool: concurrency must be an int cap or "
            f"None, not {concurrency!r} (the (min, max) actor-pool form is gone)"
        )
    return docs.map_batches(
        _link_batch,
        fn_kwargs={"indexes_ref": indexes_ref},
        batch_format="pyarrow",
        concurrency=concurrency,
        zero_copy_batch=True,
    )
