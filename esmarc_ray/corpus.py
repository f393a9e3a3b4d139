"""Deterministic synthetic corpus + entity-link lookup fixtures.

Seeded generators (FIXTURES.md §2, §4, §5) producing:

* MARC21-JSON records for all 7 entity classes, exercising every mapping row
  the class declares (esmarc_ray.mapping.ENTITY_MAPPINGS), encodable to the
  interleaved span table;
* a head-entity skew knob: one "big topic" GND id appears in a configurable
  fraction of subject links (default 30%) with a Zipf tail — the
  canonicalize-shuffle stress fixture;
* lookup tables for the entity-link stage (ef_links / wd_xref / wp_sites /
  geonames / gnd_subjects) where a known fraction of GND ids resolve, giving
  an exact link-recall truth set.

Everything is derived from (seed, index) — no wall clock, no external data.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

import pyarrow as pa

from esmarc_ray.codec import records_to_table

# bump when generation changes shape/content — cache directories embed this
# so stale on-disk corpora are never mixed with new code (v2: media fan-out)
CORPUS_VERSION = 3

_SURNAMES = ["Mueller", "Schmidt", "Vogel", "Winter", "Hartmann", "Krause", "Lehmann", "Becker"]
_FORENAMES = ["Anna", "Karl", "Marie", "Otto", "Clara", "Hans", "Ida", "Paul"]
_PLACES = ["Dresden", "Leipzig", "Bautzen", "Meissen", "Görlitz", "Zwickau", "Pirna", "Freiberg"]
_TOPICS = ["Astronomie", "Botanik", "Chemie", "Dichtung", "Ethik", "Folklore", "Geologie", "Historie"]
_TITLE_WORDS = ["Abhandlung", "Beiträge", "Chronik", "Darstellung", "Einführung", "Forschung", "Geschichte", "Handbuch"]
_PUBLISHERS = ["Insel-Verlag", "Teubner", "Brockhaus", "Reclam", "Barth", "Vieweg"]
_ROLES = ["aut", "edt", "ill", "trl", "cmp"]
_LANGS = ["ger", "eng", "lat", "fre", "ita"]
_RVK = ["AN 17700", "NZ 13500", "UB 2430", "SK 110"]
_DDC = ["943.21", "510.1", "020.7", "581.4"]

ENTITY_CODES = [None, "p", "s", "b", "g", "u", "f"]  # None → resources


def _gnd(idx: int) -> str:
    return f"{4000000 + idx}"


def _ppn(idx: int) -> str:
    return f"{800000000 + idx}"


class CorpusSpec:
    """Corpus shape parameters (seeded, deterministic)."""

    def __init__(
        self,
        n_docs: int,
        seed: int = 42,
        head_fraction: float = 0.3,
        n_gnd: int = 2000,
        resolvable_fraction: float = 0.8,
    ):
        self.n_docs = n_docs
        self.seed = seed
        self.head_fraction = head_fraction
        self.n_gnd = n_gnd
        self.resolvable_fraction = resolvable_fraction
        self.head_gnd = _gnd(0)

    def subject_gnd(self, rng: random.Random) -> str:
        """Head-skewed GND id choice: head with ``head_fraction``, Zipf tail."""
        if rng.random() < self.head_fraction:
            return self.head_gnd
        # Zipf(~1.1)-ish tail via inverse-power transform
        rank = int((rng.random() ** -1.1 - 1) * 20) % (self.n_gnd - 1) + 1
        return _gnd(rank)

    def resolvable(self, gnd_id: str) -> bool:
        """Deterministic membership of a GND id in the link stores."""
        return int(gnd_id) % 10 < int(self.resolvable_fraction * 10)


def _auth_ids(rng: random.Random, gnd_id: str) -> list[dict]:
    """$0 triple-id block mirroring tests/in/024629014's 689 pattern."""
    return [
        {"0": f"(DE-588){gnd_id}"},
        {"0": f"(DE-627){int(gnd_id) + 100000000}"},
        {"0": f"(DE-576){int(gnd_id) + 200000000}"},
    ]


def _base(
    record_idx: int,
    rng: random.Random,
    entity_code: str | None,
    own_gnd: str | None = None,
) -> dict:
    ppn = _ppn(record_idx)
    record: dict[str, Any] = {
        "001": ppn,
        "003": ["DE-627"],
        "005": [f"2022{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}{rng.randrange(24):02d}{rng.randrange(60):02d}{rng.randrange(60):02d}.0"],
        "008": [f"{rng.randrange(80, 100):02d}{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}s{rng.randrange(1500, 2020)}    gw |||||||||||  ||ger c"],
        "035": [
            {"__": [{"a": f"(DE-627){ppn}"}]},
            {"__": [{"a": f"(DE-599)GBV{ppn}"}]},
        ],
        "_FORMAT": "MarcXchange",
        "_TYPE": "Authority" if entity_code else "Bibliographic",
        "_LEADER": "02265cam a2200541   4500",
    }
    if own_gnd:
        # authority records carry their own GND id in 035 — the source of the
        # doc-level sameAs link and of the canonical entity key
        record["035"].insert(0, {"__": [{"a": f"(DE-588){own_gnd}"}]})
        if record_idx % 41 == 13:
            # merged/redirected authority record: a second DE-588 identity
            # (the GND-redirect case) — its sameAs bridges two canonical
            # keys, so the sameAs closure has real components to collapse
            record["035"].insert(1, {"__": [{"a": f"(DE-588){int(own_gnd) + 1}"}]})
    if entity_code:
        record["079"] = [{"__": [{"a": "g"}, {"b": entity_code}, {"c": "v"}, {"q": "f"}]}]
    return record


# per-class GND id ranges: authority identities never collide across classes;
# topics draw from the head-skewed subject pool (ids 0..n_gnd-1)
_GND_RANGES = {"p": (2000, 500), "b": (2600, 200), "g": (2900, 150), "u": (3100, 300), "f": (3500, 100)}
GND_ID_SPACE = 4000  # upper bound over all ranges — link tables cover this


def _own_gnd(entity_code: str, record_idx: int, rng: random.Random, spec: "CorpusSpec") -> str:
    if entity_code == "s":
        return spec.subject_gnd(rng)
    base, width = _GND_RANGES[entity_code]
    return _gnd(base + record_idx % width)


def _dates_548(rng: random.Random, code: str, exact: bool = False) -> dict:
    y1 = rng.randrange(1500, 1900)
    y2 = y1 + rng.randrange(20, 80)
    subfields = [{"a": f"{y1}-{y2}"}, {"4": code}, {"i": "exakt" if exact else "ca."}]
    return {"__": subfields}


def make_resource(record_idx: int, rng: random.Random, spec: CorpusSpec) -> dict:
    record = _base(record_idx, rng, None)
    record["007"] = [rng.choice(["tu", "cr uuu---uuuuu"])]
    title = f"{rng.choice(_TITLE_WORDS)} der {rng.choice(_TOPICS)}"
    person = f"{rng.choice(_SURNAMES)}, {rng.choice(_FORENAMES)}"
    place = rng.choice(_PLACES)
    publisher = rng.choice(_PUBLISHERS)
    year = rng.randrange(1600, 2000)
    record["020"] = [{"__": [{"a": f"3-7940-{record_idx:04d}-4"}, {"9": f"978-3-7940-{record_idx:04d}-1"}]}]
    record["022"] = [{"__": [{"a": f"{record_idx % 9000 + 1000:04d}-443X"}]}]
    record["024"] = [{"7_": [{"a": f"urn:nbn:de:bsz:14-db-id{record_idx}"}, {"2": "urn"}]}]
    record["041"] = [{"__": [{"a": rng.choice(_LANGS)}]}]
    record["084"] = [
        {"__": [{"a": rng.choice(_RVK)}, {"2": "rvk"}]},
        {"__": [{"a": rng.choice(_DDC)}, {"2": "sdnb"}]},
    ]
    record["100"] = [{"1_": [{"a": person}, {"d": f"{year - 60}-{year - 10}"},
                             {"4": rng.choice(_ROLES)}] + _auth_ids(rng, _gnd(record_idx % spec.n_gnd))}]
    record["245"] = [{"10": [{"a": title}, {"b": f"ein {rng.choice(_TITLE_WORDS)}"}, {"c": person}]}]
    record["250"] = [{"__": [{"a": f"{rng.randrange(1, 9)}. Auflage"}, {"b": f"besorgt von {person}"}]}]
    record["264"] = [{"_1": [{"a": place}, {"b": publisher}, {"c": str(year)}]}]
    record["300"] = [{"__": [{"a": f"{rng.randrange(50, 900)} S."}, {"b": "Ill."}, {"c": "8"}]}]
    record["490"] = [{"0_": [{"a": f"Schriften zur {rng.choice(_TOPICS)}"}, {"v": str(rng.randrange(1, 40))}]}]
    record["500"] = [{"__": [{"a": f"Enthält {rng.randrange(2, 9)} Beiträge"}]}]
    record["540"] = [{"__": [{"a": "Public Domain Mark 1.0"}, {"u": "https://creativecommons.org/publicdomain/mark/1.0/"}]}]
    subject_gnd = spec.subject_gnd(rng)
    record["689"] = [
        {"00": [{"D": "s"}] + _auth_ids(rng, subject_gnd) + [{"a": rng.choice(_TOPICS)}]},
        {"01": [{"D": "g"}] + _auth_ids(rng, spec.subject_gnd(rng)) + [{"a": place}]},
    ]
    record["650"] = [{"_0": [{"0": f"(DE-588){subject_gnd}"}, {"a": rng.choice(_TOPICS)}]}]
    record["655"] = [{"_7": [{"a": "Konferenzschrift"}, {"0": f"(DE-588){_gnd(1000 + record_idx % 50)}"}, {"2": "gnd-content"}]}]
    record["700"] = [{"1_": [{"a": f"{rng.choice(_SURNAMES)}, {rng.choice(_FORENAMES)}"},
                             {"4": rng.choice(_ROLES)}] + _auth_ids(rng, _gnd((record_idx + 7) % spec.n_gnd))}]
    record["751"] = [{"__": [{"a": place}, {"0": f"(DE-588){_gnd(1500 + record_idx % 99)}"},
                             {"0": f"(DE-627){record_idx + 300000000}"}, {"4": "pup"}]}]
    record["773"] = [{"08": [{"w": f"(DE-627){_ppn(record_idx + 1) }"}, {"g": f"Band {rng.randrange(1, 20)}"}, {"t": f"{rng.choice(_TITLE_WORDS)} Gesamtwerk"}]}]
    record["852"] = [{"__": [{"a": "DE-14"}]}]
    # interleaved-media fan-out fixture: 1-3 digitization links per resource
    # (deterministic), each becoming one media span in the encoded row
    record["856"] = [
        {"40": [{"u": f"http://digital.example.org/id{record['001']}"
                      + ("" if i == 0 else f"/f{i:04d}")}]}
        for i in range(1 + record_idx % 3)
    ]
    record["924"] = [{"1_": [{"a": f"{record_idx}x"}, {"b": "DE-14"}, {"d": "b"}]}]
    record["935"] = [{"__": [{"a": "SAXB" if record_idx % 4 == 0 else "mteo"}]}]
    record["936"] = [{"rv": [{"a": rng.choice(_RVK)}, {"b": f"{rng.choice(_TOPICS)}kunde"},
                             {"k": rng.choice(_TOPICS)}, {"0": f"(DE-625)rvk/{record_idx % 997}:"}]}]
    record["980"] = [{"__": [{"b": "slub"}]}]
    if record_idx % 3 == 0:
        # reproduction block: exercises 533-based publisher/originalPublisher,
        # datePublished priority, reproductionSeriesStatement and footnotes
        record["533"] = [{"__": [{"a": "Mikrofiche-Ausgabe"}, {"b": place},
                                 {"c": publisher}, {"d": f"[{year + 200}]"},
                                 {"e": "1 Mikrofiche"},
                                 {"f": f"Edition {rng.choice(_TITLE_WORDS)}"},
                                 {"n": "Nachdruck"}]}]
    return record


def make_person(record_idx: int, rng: random.Random, spec: CorpusSpec) -> dict:
    record = _base(record_idx, rng, "p", _own_gnd("p", record_idx, rng, spec))
    name = f"{rng.choice(_SURNAMES)}, {rng.choice(_FORENAMES)}"
    record["100"] = [{"1_": [{"a": name}]}]
    record["375"] = [{"__": [{"a": str(rng.randrange(3))}]}]
    record["400"] = [{"1_": [{"a": f"{rng.choice(_SURNAMES)}, {rng.choice(_FORENAMES)}"}, {"c": "Pseudonym"}]}]
    related_name = f"{rng.choice(_SURNAMES)}, {rng.choice(_FORENAMES)}"
    related_gnd = {"0": f"(DE-588){_gnd((record_idx + 3) % spec.n_gnd)}"}
    if record_idx % 2:
        # exact $9 relator key → the single-string re-keying path
        record["500"] = [{"1_": [{"a": related_name},
                                 {"9": rng.choice(["Bruder", "Vater", "Ehe", "bezf"])},
                                 related_gnd]}]
    else:
        # two $9 values → the list matching path incl. "v:" prefixed codes
        record["500"] = [{"1_": [{"a": related_name},
                                 {"9": rng.choice(["v:Tochter", "v:Zwilling", "v:Schüler"])},
                                 {"9": "XA"}, related_gnd]}]
    record["548"] = [
        _dates_548(rng, "datl", exact=True),
        _dates_548(rng, "datw"),
    ]
    record["550"] = [{"__": [{"a": rng.choice(_TOPICS)}, {"4": "berc"},
                             {"0": f"(DE-588){_gnd(1000 + record_idx % 200)}"}]}]
    record["551"] = [
        {"__": [{"a": rng.choice(_PLACES)}, {"4": "ortg"}, {"0": f"(DE-588){_gnd(1500 + record_idx % 99)}"}]},
        {"__": [{"a": rng.choice(_PLACES)}, {"4": "orts"}]},
    ]
    return record


def make_topic(record_idx: int, rng: random.Random, spec: CorpusSpec) -> dict:
    record = _base(record_idx, rng, "s", _own_gnd("s", record_idx, rng, spec))
    topic = rng.choice(_TOPICS)
    record["150"] = [{"__": [{"a": topic}, {"x": "Geschichte"}, {"g": rng.choice(_PLACES)}]}]
    record["450"] = [{"__": [{"a": f"Alt{topic.lower()}"}, {"x": "Lehre"}]}]
    record["550"] = [{"__": [{"a": rng.choice(_TOPICS)}, {"0": f"(DE-588){_gnd(1000 + record_idx % 200)}"}]}]
    record["679"] = [{"__": [{"a": f"Lehre von {topic}"}]}]
    return record


def make_organization(record_idx: int, rng: random.Random, spec: CorpusSpec) -> dict:
    record = _base(record_idx, rng, "b", _own_gnd("b", record_idx, rng, spec))
    record["110"] = [{"2_": [{"a": f"Gesellschaft für {rng.choice(_TOPICS)}"}, {"b": rng.choice(_PLACES)}]}]
    record["410"] = [{"2_": [{"a": f"G{rng.choice(_TOPICS)[:3]}"}, {"b": "e.V."}]}]
    record["548"] = [_dates_548(rng, "datb", exact=True)]
    record["550"] = [{"__": [{"a": "Verein"}, {"4": "obin"}, {"0": f"(DE-588){_gnd(1200 + record_idx % 70)}"}]}]
    record["551"] = [{"__": [{"a": rng.choice(_PLACES)}, {"4": "orta"}, {"0": f"(DE-588){_gnd(1500 + record_idx % 99)}"}]}]
    return record


def make_geo(record_idx: int, rng: random.Random, spec: CorpusSpec) -> dict:
    record = _base(record_idx, rng, "g", _own_gnd("g", record_idx, rng, spec))
    # grid-aligned coordinates matching the geonames fixture rows exactly,
    # giving a deterministic geo-join truth set
    geo_idx = record_idx % GND_ID_SPACE
    lat = 50.0 + (geo_idx % 400) / 100.0
    lon = 12.0 + (geo_idx % 300) / 100.0
    record["034"] = [{"__": [{"d": f"E{lon:09.5f}"}, {"e": f"E{lon:09.5f}"},
                             {"f": f"N{lat:09.5f}"}, {"g": f"N{lat:09.5f}"}]}]
    record["043"] = [{"__": [{"c": "XA-DE-SN"}]}]
    record["151"] = [{"__": [{"a": _PLACES[geo_idx % len(_PLACES)]}]}]
    record["451"] = [{"__": [{"a": f"Alt-{rng.choice(_PLACES)}"}]}]
    record["548"] = [_dates_548(rng, "datb", exact=True)]
    record["551"] = [{"__": [{"a": rng.choice(_PLACES)}, {"4": "vbal"}]}]
    return record


def make_work(record_idx: int, rng: random.Random, spec: CorpusSpec) -> dict:
    record = _base(record_idx, rng, "u", _own_gnd("u", record_idx, rng, spec))
    title = f"{rng.choice(_TITLE_WORDS)} {rng.choice(_TOPICS)}"
    record["100"] = [{"1_": [{"a": f"{rng.choice(_SURNAMES)}, {rng.choice(_FORENAMES)}"}, {"t": title}]}]
    record["130"] = [{"_0": [{"a": title}, {"f": str(rng.randrange(1600, 1900))}, {"l": "Deutsch"}]}]
    record["400"] = [{"1_": [{"t": f"{title} (Fassung B)"}]}]
    record["500"] = [{"1_": [{"a": f"{rng.choice(_SURNAMES)}, {rng.choice(_FORENAMES)}"},
                             {"0": f"(DE-588){_gnd((record_idx + 11) % spec.n_gnd)}"}]}]
    record["548"] = [_dates_548(rng, "dats", exact=True)]
    return record


def make_event(record_idx: int, rng: random.Random, spec: CorpusSpec) -> dict:
    record = _base(record_idx, rng, "f", _own_gnd("f", record_idx, rng, spec))
    record["111"] = [{"2_": [{"a": f"Kongress für {rng.choice(_TOPICS)}"}]}]
    record["411"] = [{"2_": [{"a": f"K{record_idx % 100}"}]}]
    record["043"] = [{"__": [{"c": "XA-DE"}]}]
    record["548"] = [_dates_548(rng, "datv", exact=True)]
    record["551"] = [{"__": [{"a": rng.choice(_PLACES)}, {"4": "ortv"},
                             {"0": f"(DE-588){_gnd(1500 + record_idx % 99)}"}]}]
    return record


_MAKERS = {
    None: make_resource,
    "p": make_person,
    "s": make_topic,
    "b": make_organization,
    "g": make_geo,
    "u": make_work,
    "f": make_event,
}

# class mix: half resources (title data), rest across authority classes
_MIX = [None] * 6 + ["p", "p", "s", "b", "g", "u", "f"]


def make_record(idx: int, spec: CorpusSpec) -> tuple[str, dict]:
    """One (doc_id, record), a pure function of (seed, index) — the unit of
    parallelism for the distributed generator."""
    rng = random.Random(f"{spec.seed}:{idx}")
    code = _MIX[idx % len(_MIX)]
    record = _MAKERS[code](idx, rng, spec)
    return record["001"], record


def generate_records(spec: CorpusSpec) -> Iterator[tuple[str, dict]]:
    """Yield (doc_id, record) deterministically from (seed, index)."""
    for idx in range(spec.n_docs):
        yield make_record(idx, spec)


def write_corpus(path: str, spec: CorpusSpec, rows_per_file: int = 20000) -> list[str]:
    """Write the span-document corpus as one-or-more parquet files.

    Generation is a pure function of (seed, index), so when a Ray session is
    live the work fans out as Ray tasks over index-range shards — one task and
    one output file per shard (content identical to the serial path, which
    remains as the no-Ray fallback)."""
    import pathlib

    import pyarrow.parquet as pq

    out_dir = pathlib.Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    shards = [
        (s, start, min(start + rows_per_file, spec.n_docs))
        for s, start in enumerate(range(0, spec.n_docs, rows_per_file))
    ]

    try:
        import ray

        use_ray = ray.is_initialized()
    except ImportError:  # pragma: no cover - ray is always present here
        use_ray = False

    if use_ray:
        import ray

        @ray.remote(num_cpus=1)
        def write_shard(shard: int, start: int, stop: int) -> str:
            file_path = out_dir / f"part-{shard:05d}.parquet"
            table = records_to_table(make_record(i, spec) for i in range(start, stop))
            pq.write_table(table, file_path, row_group_size=2048)
            return str(file_path)

        return ray.get([write_shard.remote(s, a, b) for s, a, b in shards])

    files = []
    for s, start, stop in shards:
        file_path = out_dir / f"part-{s:05d}.parquet"
        pq.write_table(
            records_to_table(make_record(i, spec) for i in range(start, stop)),
            file_path,
            row_group_size=2048,
        )
        files.append(str(file_path))
    return files


# -- entity-link lookup fixtures (FIXTURES.md §4) ----------------------------


def link_tables(spec: CorpusSpec) -> dict[str, pa.Table]:
    """Synthetic stands-ins for the GND/entityfacts/wikidata/wikipedia/geonames
    stores (shapes per reference enrichment/*.py), with deterministic truth."""
    ef_rows, wd_rows, wp_rows, geo_rows, subj_rows = [], [], [], [], []
    cat_rows = []
    for idx in range(GND_ID_SPACE):
        gnd_id = _gnd(idx)
        geo_rows.append(
            {
                "geoname_id": 2800000 + idx,
                "name": _PLACES[idx % len(_PLACES)],
                "alternate_names": [f"{_PLACES[idx % len(_PLACES)]}-Alt"],
                "lat": 50.0 + (idx % 400) / 100.0,
                "lon": 12.0 + (idx % 300) / 100.0,
            }
        )
        if not spec.resolvable(gnd_id):
            continue
        rng = random.Random(f"{spec.seed}:links:{idx}")
        qid = f"Q{9000000 + idx}"
        ef_rows.append(
            {
                "gnd_id": gnd_id,
                "links": [
                    {"id": f"http://viaf.org/viaf/{100000 + idx}", "abbr": "VIAF", "name": "Virtual International Authority File"},
                    {"id": f"https://isni.org/isni/{idx:016d}", "abbr": "ISNI", "name": "International Standard Name Identifier"},
                ],
            }
        )
        wd_rows.append({"ext_uri_prefix": "https://d-nb.info/gnd/", "ext_value": gnd_id, "qid": qid})
        # the same entity is also reachable through its VIAF id (the id the
        # entityfacts links add) — exercises the multi-prefix wikidata path
        wd_rows.append({"ext_uri_prefix": "http://viaf.org", "ext_value": str(100000 + idx), "qid": qid})
        for site in ("de", "en"):
            wp_rows.append(
                {"qid": qid, "site": site, "url": f"https://{site}.wikipedia.org/wiki/Entity_{idx}", "title": f"Entity {idx}"}
            )
            prefix = "Kategorie" if site == "de" else "Category"
            cat_rows.append(
                {
                    "cc": site,
                    "article_title": f"Entity_{idx}",
                    "pages": [
                        {
                            "page_id": 7000000 + idx * 2 + n,
                            "title": f"{prefix}:{rng.choice(_TOPICS)}",
                        }
                        for n in range(1 + idx % 2)
                    ],
                }
            )
        subj_rows.append(
            {
                "gnd_id": gnd_id,
                "subject_category": [f"{rng.choice(_TOPICS)}"],
                "field_of_study": [rng.choice(_TOPICS)],
                "ddc3": [rng.choice(_DDC)[:3]],
            }
        )
    return {
        "ef_links": pa.Table.from_pylist(ef_rows),
        "wd_xref": pa.Table.from_pylist(wd_rows),
        "wp_sites": pa.Table.from_pylist(wp_rows),
        "geonames": pa.Table.from_pylist(geo_rows),
        "gnd_subjects": pa.Table.from_pylist(subj_rows),
        "wp_categories": pa.Table.from_pylist(cat_rows),
    }
