"""esmarc_ray — a Ray-Data-native knowledge-graph construction engine.

Re-expresses the MARC21 → schema.org mapping semantics of the reference
engine (slub/esmarc, surveyed in /root/repo/SURVEY.md) as streaming
``ray.data.Dataset`` pipelines:

* span-encoded interleaved text+media documents (``codec``)
* stateless ``map_batches`` extraction to (subj, pred, obj) triples
  (``stages.extract``, ``mapping``)
* task-pool entity linking against broadcast in-memory indexes, fused
  with extraction (``stages.link``)
* canonicalization: a batch-local pre-combine, then one hash-partitioned
  merge on normalized entity keys (``stages.canonicalize``)
* sorted, partitioned, resumable graph materialize (``stages.materialize``)

plus the generic large-scale training-data operators (``ops``): dedup,
similarity search, text analysis, multimodal plumbing.
"""

__version__ = "0.1.0"
