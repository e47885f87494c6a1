"""Independent oracles shared across the test suite.

Nothing in here calls back into the library's forward/backward machinery for
the quantity being checked: gradients come from central finite differences,
attention from explicit per-head numpy loops, retrieval from a full scan of
the store, matmul from a bare triple loop. The library must agree with these,
not the other way around.
"""

import math
import struct

import numpy as np
from hypothesis import strategies as st

from kkt.knowledge import content_words
from kkt.tokenizer import tokenize


# ---------------------------------------------------------------------------
# finite differences

def numeric_grad(loss_fn, leaf, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. every entry of leaf.

    loss_fn must rebuild the computation and return a float; leaf.data is
    perturbed in place and restored.
    """
    x = leaf.data
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        keep = x[idx]
        x[idx] = keep + h
        fp = loss_fn()
        x[idx] = keep - h
        fm = loss_fn()
        x[idx] = keep
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric):
    """max |a-n| / max(1, |a|, |n|) over all entries."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    if analytic.size == 0:
        return 0.0
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def gradcheck(loss_fn, leaves, h=1e-5):
    """Worst relative error between backward() grads and central differences.

    loss_fn() must rebuild the graph from `leaves` (requires_grad tensors)
    and return the scalar loss Tensor.
    """
    loss = loss_fn()
    for p in leaves:
        p.grad = None
    loss.backward()
    worst = 0.0
    for p in leaves:
        analytic = np.array(p.grad, copy=True)
        numeric = numeric_grad(lambda: loss_fn().item(), p, h=h)
        worst = max(worst, max_rel_err(analytic, numeric))
    return worst


def sampled_rel_errs(loss_fn, leaves, rng, per_tensor=2, h=1e-5):
    """Like gradcheck but only probes a few entries of each leaf.

    Keeps full-model checks tractable; returns the list of relative errors.
    """
    loss = loss_fn()
    for p in leaves:
        p.grad = None
    loss.backward()
    errs = []
    for p in leaves:
        analytic = np.array(p.grad, copy=True)
        x = p.data
        picks = rng.choice(x.size, size=min(per_tensor, x.size), replace=False)
        for flat in picks:
            idx = np.unravel_index(int(flat), x.shape) if x.ndim else ()
            keep = x[idx]
            x[idx] = keep + h
            fp = loss_fn().item()
            x[idx] = keep - h
            fm = loss_fn().item()
            x[idx] = keep
            numeric = (fp - fm) / (2.0 * h)
            a = float(analytic[idx])
            errs.append(abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
    return errs


# ---------------------------------------------------------------------------
# attention oracles (explicit loops, raw numpy)

def naive_softmax_rows(x):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.exp(x[i] - x[i].max())
        out[i] = e / e.sum()
    return out


def naive_mha(wq, wk, wv, q, k, v):
    """Per-head loop attention. Returns (output, list of attention matrices).

    wq/wk/wv are lists of raw [d_model x d_head] arrays.
    """
    d_head = wq[0].shape[1]
    outs, weights = [], []
    for i in range(len(wq)):
        qi = q @ wq[i]
        ki = k @ wk[i]
        vi = v @ wv[i]
        att = naive_softmax_rows(qi @ ki.T / math.sqrt(d_head))
        weights.append(att)
        outs.append(att @ vi)
    return np.concatenate(outs, axis=1), weights


def mha_arrays(params):
    """Raw weight arrays of an MhaParams, for feeding the naive oracle."""
    return (
        [w.data for w in params.wq],
        [w.data for w in params.wk],
        [w.data for w in params.wv],
    )


def naive_duma(p1, p2, h_c, h_qa):
    m1, _ = naive_mha(*mha_arrays(p1), h_c, h_qa, h_qa)
    m2, _ = naive_mha(*mha_arrays(p2), h_qa, h_c, h_c)
    return np.concatenate([m1.mean(axis=0), m2.mean(axis=0)])


def naive_refine(params, h_c, h_qa, spans, key_turns, ck_rows, qak_rows):
    """Step-by-step recomputation of the refinement stage.

    ck_rows/qak_rows are raw [p x d_model] arrays (possibly empty).
    Returns (h_kt, h_c_kt, h_c_k, h_qa_k) with identity fallbacks applied.
    """
    rows = [r for t in key_turns for r in range(spans[t][0], spans[t][1])]
    if rows:
        h_kt = h_c[rows]
        h_c_kt = naive_mha(*mha_arrays(params.refine_kt), h_c, h_kt, h_kt)[0]
    else:
        h_kt = None
        h_c_kt = h_c
    h_c_k = h_c if len(ck_rows) == 0 else naive_mha(*mha_arrays(params.refine_ck), h_c, ck_rows, ck_rows)[0]
    h_qa_k = h_qa if len(qak_rows) == 0 else naive_mha(*mha_arrays(params.refine_qak), h_qa, qak_rows, qak_rows)[0]
    return h_kt, h_c_kt, h_c_k, h_qa_k


# ---------------------------------------------------------------------------
# other oracles

def loop_matmul(a, b):
    """Bare triple-loop matrix product, accumulating in index order."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = a[i, 0] * b[0, j]
            for k in range(1, kk):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def brute_retrieve_ids(store, texts, p):
    """Scan-and-sort over the whole store; no inverted index involved."""
    query = set()
    for text in texts:
        query.update(content_words(text, store.tagger))
    rows = []
    for tid, t in enumerate(store.triples):
        matched = query & set(tokenize(t.head) + tokenize(t.tail))
        if matched:
            rows.append((-t.weight, -len(matched), store.facts[tid].text, tid))
    rows.sort()
    return [r[3] for r in rows[:p]]


def rule_reader(example, planted_turn=None, kg_facts=None):
    """Answers a synthetic example by pattern matching, no model involved.

    With the planted turn it reads the stated topic; with the KG fact table
    (entity -> location) it answers location questions. Otherwise it guesses
    option 0.
    """
    if planted_turn is not None:
        text = example.turns[planted_turn]
        marker = "i really like "
        if marker in text:
            topic = text.split(marker, 1)[1].split(" these days")[0].strip()
            for j, opt in enumerate(example.options):
                if opt == topic:
                    return j
    if kg_facts is not None:
        for token in tokenize(example.question):
            loc = kg_facts.get(token)
            if loc is not None:
                for j, opt in enumerate(example.options):
                    if opt == f"in the {loc}":
                        return j
    return 0


# ---------------------------------------------------------------------------
# checkpoint corruption

def checkpoint_header_offsets(blob):
    """Offsets of every byte of a well-formed KKTC blob that is not tensor
    payload, found by walking the documented layout with struct."""
    offsets = list(range(13))
    pos = 13
    for _ in range(struct.unpack_from("<I", blob, 9)[0]):
        name_len = struct.unpack_from("<H", blob, pos)[0]
        rank = blob[pos + 2 + name_len]
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 3 + name_len)
        head = 3 + name_len + 4 * rank
        offsets.extend(range(pos, pos + head))
        pos += head + 4 * math.prod(dims)
    assert pos == len(blob)
    return offsets


def corrupted(blob):
    """Strategy: a strict prefix of `blob`, or `blob` with one to four bytes
    overwritten, each drawn as often from the headers as from anywhere."""
    anywhere = st.integers(0, len(blob) - 1)
    position = st.one_of(st.sampled_from(checkpoint_header_offsets(blob)), anywhere)

    def overwrite(edits):
        out = bytearray(blob)
        for pos, value in edits:
            out[pos] = value
        return bytes(out)

    return st.one_of(
        anywhere.map(lambda n: blob[:n]),
        st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4).map(overwrite),
    )
