"""URL canonicalization and host-level operators for web-text ingestion.

Common-Crawl-style corpora key everything on the page URL (the reference
likewise keys documents on their RethinkDB id — ``/root/reference/src/
search-ingest/table.cr:63-83`` — and a web corpus's natural id is the
canonical URL).  Raw crawl URLs are noisy: mixed-case schemes/hosts,
explicit default ports, tracking query parameters, fragments, duplicate
slashes and trailing slashes all alias the same resource.  This module
provides the vectorized kernels a 100-TB crawl pipeline needs:

- :func:`canonicalize_urls` — Arrow-native canonical form (the exact
  regex/op sequence is the contract; the DuckDB oracle in
  ``__ray_entry__.oracle_sql`` replays the same RE2 steps, so results are
  byte-identical);
- :func:`host_of` / :func:`registered_domain_of` — host + eTLD-ish
  grouping keys for per-site statistics and blocklists;
- :func:`canonical_url_dedup` — keep the newest crawl per canonical URL
  (hash-partitioned fold, one vectorized sort per partition — reuses
  ``stages.fold.partitioned_fold``, so it scales exactly like the upsert
  sink);
- :func:`host_blocklist_filter` — broadcast-set host filter (the blocklist
  rides the task's ``fn_kwargs``, ``pc.is_in`` per batch; no shuffle).

Scale notes: every kernel is a fixed sequence of RE2 passes over a string
column — no per-row Python anywhere.  Dedup is the only shuffle and it
exchanges just (canonical_url-hash partition) blocks; host stats
pre-aggregate per batch before the tiny per-host groupby.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# Tracking-parameter keys stripped by canonicalization.  The list is part
# of the canonical contract (mirrored in the SQL oracle) — extend in lock
# step on both sides.
TRACKING_PARAM_RE = "utm_[A-Za-z0-9_]*|fbclid|gclid|msclkid|mc_eid"

_URL_PARTS_RE = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://"
                 r"(?P<hostport>[^/?#]*)(?P<rest>.*)$")


def _strip_noise(urls) -> pa.ChunkedArray:
    """Fragment + tracking-param removal (the scheme-independent half).

    Op sequence (each a single RE2 global replace, same order in SQL):
      1. ``#.*$``                      → ''   (fragment)
      2. ``([?&])(<tracking>)=[^&#]*`` → ``\\1`` (tracking params)
      3. ``\\?&+`` → ``?`` ; ``&&+`` → ``&`` ; ``[?&]+$`` → ''  (tidy)
    """
    s = pc.replace_substring_regex(urls, pattern="#.*$", replacement="")
    s = pc.replace_substring_regex(
        s, pattern=rf"([?&])({TRACKING_PARAM_RE})=[^&#]*", replacement=r"\1")
    s = pc.replace_substring_regex(s, pattern=r"\?&+", replacement="?")
    s = pc.replace_substring_regex(s, pattern=r"&&+", replacement="&")
    s = pc.replace_substring_regex(s, pattern=r"[?&]+$", replacement="")
    return s


def canonicalize_urls(urls) -> pa.Array:
    """Canonical URL form, fully vectorized (RE2 + Arrow kernels only).

    Contract (deterministic, order matters — the SQL oracle replays it):
      1. strip fragment, tracking params (:func:`_strip_noise`);
      2. lowercase scheme and host;
      3. drop the scheme's default port (``http://…:80``,
         ``https://…:443`` — non-default ports are kept);
      4. collapse duplicate slashes in the path;
      5. drop a bare trailing slash (``…/a/`` → ``…/a``; a root path
         ``host/`` → ``host``) — query strings are untouched;
    URLs that do not parse as ``scheme://host…`` (relative links, garbage
    lines in a crawl) pass through with step 1 only.
    """
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    s = _strip_noise(urls)
    parts = pc.extract_regex(s, pattern=_URL_PARTS_RE)
    ok = pc.is_valid(parts)
    scheme = pc.utf8_lower(pc.struct_field(parts, "scheme"))
    host = pc.utf8_lower(pc.struct_field(parts, "hostport"))
    host = pc.if_else(
        pc.equal(scheme, "http"),
        pc.replace_substring_regex(host, pattern=":80$", replacement=""),
        host)
    host = pc.if_else(
        pc.equal(scheme, "https"),
        pc.replace_substring_regex(host, pattern=":443$", replacement=""),
        host)
    rest = pc.struct_field(parts, "rest")
    rest = pc.replace_substring_regex(rest, pattern="/{2,}", replacement="/")
    rest = pc.replace_substring_regex(rest, pattern=r"^(.*[^/])/$",
                                      replacement=r"\1")
    rest = pc.replace_substring_regex(rest, pattern="^/$", replacement="")
    rebuilt = pc.binary_join_element_wise(scheme, "://", host, rest, "")
    return pc.if_else(ok, rebuilt, s)


def host_of(urls, *, strip_port: bool = True) -> pa.Array:
    """Lowercased host of each URL ('' when the URL has no authority)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    parts = pc.extract_regex(urls, pattern=_URL_PARTS_RE)
    host = pc.utf8_lower(pc.struct_field(parts, "hostport"))
    if strip_port:
        host = pc.replace_substring_regex(host, pattern=":[0-9]+$",
                                          replacement="")
    return pc.if_else(pc.is_valid(parts), host, "").combine_chunks() \
        if isinstance(host, pa.ChunkedArray) else \
        pc.if_else(pc.is_valid(parts), host, "")


def registered_domain_of(urls) -> pa.Array:
    """Registrable-domain grouping key: the last two dot-labels of the
    host (``news.bbc.co.uk`` → ``co.uk`` caveat applies — a full public
    -suffix list is a data file, not an algorithm; this two-label
    simplification is the documented contract and matches the oracle)."""
    host = host_of(urls)
    dom = pc.extract_regex(host, pattern=r"(?P<dom>[^.]+\.[^.]+)$")
    return pc.if_else(pc.is_valid(dom), pc.struct_field(dom, "dom"), host)


def add_canonical_columns(batch: pa.Table, *, url_col: str = "url",
                          canon_col: str = "canon_url",
                          host_col: str | None = "host") -> pa.Table:
    """``map_batches`` kernel: append canonical-url (+host) columns
    (replacing them if already present, so the kernel is idempotent)."""
    def put(t: pa.Table, name: str, col) -> pa.Table:
        if name in t.column_names:
            return t.set_column(t.column_names.index(name), name, col)
        return t.append_column(name, col)

    canon = canonicalize_urls(batch[url_col])
    batch = put(batch, canon_col, canon)
    if host_col:
        batch = put(batch, host_col, host_of(canon))
    return batch


def canonical_url_dedup(ds, *, url_col: str = "url",
                        ts_col: str = "warc_ts",
                        tiebreak_cols: tuple[str, ...] = (),
                        num_partitions: int = 32):
    """Keep the newest crawl of each canonical URL.

    Shape: one map_batches pass adds the canonical key, then a
    hash-partitioned fold (``stages.fold.partitioned_fold``) keeps the
    max-``(ts, *tiebreak)`` row per key — the same one-exchange,
    vectorized-sort-per-partition machinery as the upsert sink (E9), so
    the 100-TB story is identical: the only shuffle moves each row once,
    keyed by an 8-byte hash of the canonical URL.
    """
    from ..stages.fold import partitioned_fold
    with_key = ds.map_batches(add_canonical_columns, batch_format="pyarrow",
                              fn_kwargs={"url_col": url_col,
                                         "host_col": None})
    return partitioned_fold(with_key, ["canon_url"],
                            [ts_col, *tiebreak_cols], keep="last",
                            num_partitions=num_partitions)


def _blocklist_batch(batch: pa.Table, *, blocked: pa.Array, url_col: str,
                     keep_blocked: bool) -> pa.Table:
    mask = pc.is_in(host_of(batch[url_col]), value_set=blocked)
    return batch.filter(mask if keep_blocked else pc.invert(mask))


def host_blocklist_filter(ds, blocked_hosts, *, url_col: str = "url",
                          keep_blocked: bool = False):
    """Drop (or keep) rows whose URL host is in a blocklist.

    The blocklist is one Arrow array in the filter task's ``fn_kwargs``:
    Ray Data puts it in the object store once per operator, never once
    per batch; the probe is one ``pc.is_in`` against a host column
    derived by :func:`host_of`.  No shuffle.
    """
    blocked = pa.array(sorted(set(blocked_hosts)), pa.string())
    return ds.map_batches(_blocklist_batch, batch_format="pyarrow",
                          fn_kwargs=dict(blocked=blocked, url_col=url_col,
                                         keep_blocked=keep_blocked))
