"""Independent oracles shared across the test suite.

Nothing in here calls back into the library's forward/backward machinery for
the quantity being checked: gradients come from central finite differences,
attention from explicit per-head numpy loops, retrieval from a full scan of
the store, matmul from a bare triple loop. The library must agree with these,
not the other way around. The exceptions are `chain_mha` and
`chain_mha_segments`, which build attention from the library's smaller ops
as the reference for the fused op, `per_option_predict`, which runs
each option alone through the model as the reference for the all-options
pass, and `per_path_forward`, which runs one co-attention per path as the
reference for the stacked one.
"""

import copy
import math
import struct

import numpy as np
from hypothesis import strategies as st

from kkt import model
from kkt import tensor as T
from kkt.checkpoint import checkpoint_bytes, parse_checkpoint
from kkt.knowledge import content_words, rank_triples
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

    wq/wk/wv are raw [h, d_model, d_head] arrays, head i's being wq[i].
    """
    d_head = wq.shape[2]
    outs, weights = [], []
    for i in range(len(wq)):
        qi = q @ wq[i]
        ki = k @ wk[i]
        vi = v @ wv[i]
        att = naive_softmax_rows(qi @ ki.T / math.sqrt(d_head))
        weights.append(att)
        outs.append(att @ vi)
    return np.concatenate(outs, axis=1), weights


def chain_mha(params, q_seq, k_seq, v_seq, lengths=None, key_lengths=None):
    """Multi-head attention as a chain of per-head tensor ops, 8h+1 graph
    nodes: matmul projections, transpose, scale, softmax_rows, matmul, then
    concat_last_axis. `attention.mha` runs the single op `tensor.attention`
    instead and must match this chain bit for bit in float64. With several
    segment pairs the chain runs per pair (`chain_mha_segments`) and the
    segment outputs are stacked back into one matrix; `calls` counts every
    call, so a test can tell that the chain really ran. Head i's weights
    are `head_slices` of the rank-3 projections."""
    chain_mha.calls += 1
    if lengths is not None and len(lengths) > 1:
        return T.concat_rows(chain_mha_segments(params, q_seq, k_seq, v_seq, lengths, key_lengths))
    scale = 1.0 / math.sqrt(params.wk.shape[2])
    heads = []
    for wq, wk, wv in zip(*map(head_slices, (params.wq, params.wk, params.wv))):
        q = T.matmul(q_seq, wq)
        k = T.matmul(k_seq, wk)
        v = T.matmul(v_seq, wv)
        scores = T.mul(T.matmul(q, T.transpose(k)), scale)
        heads.append(T.matmul(T.softmax_rows(scores), v))
    return T.concat_last_axis(heads)


chain_mha.calls = 0


def head_slices(w):
    """The heads of a rank-3 [h, d_model, d_head] projection as h graph
    nodes, node i holding slice i; each sends its gradient back into slice
    i of a zero array of the projection's shape."""
    def head(i):
        def backward(g):
            full = np.zeros_like(w.data)
            full[i] = g
            return (full,)

        return T._result(w.data[i], (w,), backward)

    return [head(i) for i in range(w.shape[0])]


def chain_mha_segments(params, q_seq, k_seq, v_seq, lengths, key_lengths=None):
    """`chain_mha` run per segment pair, the reference for `tensor.attention`
    with `lengths` and `key_lengths` (which default to `lengths`). As in the
    op, each projection is one matmul over all rows; query segment i then
    runs the chain's scores, softmax and output ops over key segment i, each
    gathered with `take_rows`. Returns the output of every segment, in
    order."""
    scale = 1.0 / math.sqrt(params.wk.shape[2])
    projections = [
        (T.matmul(q_seq, wq), T.matmul(k_seq, wk), T.matmul(v_seq, wv))
        for wq, wk, wv in zip(*map(head_slices, (params.wq, params.wk, params.wv)))
    ]
    q_edges = np.cumsum([0] + list(lengths))
    k_edges = np.cumsum([0] + list(lengths if key_lengths is None else key_lengths))
    outs = []
    for a, b, ka, kb in zip(q_edges, q_edges[1:], k_edges, k_edges[1:]):
        heads = []
        for pq, pk, pv in projections:
            q = T.take_rows(pq, range(a, b))
            k, v = (T.take_rows(t, range(ka, kb)) for t in (pk, pv))
            scores = T.mul(T.matmul(q, T.transpose(k)), scale)
            heads.append(T.matmul(T.softmax_rows(scores), v))
        outs.append(T.concat_last_axis(heads))
    return outs


def one_option(example, j):
    """A copy of the example holding option j alone. `kkt.model` reads no
    other field that depends on the option count, so the copy runs option j
    through the stacked code as a stack of one."""
    alone = copy.copy(example)
    alone.options = [example.options[j]]
    return alone


def per_option_predict(pipe, example):
    """`KktPipeline.predict` as an option loop: each option encoded, refined,
    fused and decoded alone, as a one-option example, the logits then
    stacked. The reference for the all-options pass. Its fact rows are the
    fact encoder's rows of the ranked ids of each query text."""
    knowledge = pipe._needs_knowledge()

    def fact_rows(texts):
        ids = rank_triples(pipe.store, texts, pipe.p) if knowledge else []
        return [pipe.fact_encoder.encode_fact(pipe.store.triples[tid].fact) for tid in ids]

    ck = fact_rows(example.turns)
    logits, flags, truncated = [], [], False
    for j in range(len(example.options)):
        selected = pipe.provider.select(example, example.qa_text(j), pipe.k) if pipe._needs_key_turns() else ()
        turns = None
        if pipe.ablation == "keyturns-only" and selected:
            turns = [[example.turns[i] for i in selected]]
            selected = tuple(range(len(selected)))
        enc = model.encode_pair(pipe.params.enc, pipe.tokenizer, one_option(example, j), pipe.max_len, turns=turns)
        logit, refined = model.forward(pipe.params, enc, [selected], ck, [fact_rows([example.qa_text(j)])])
        logits.append(logit)
        truncated = truncated or enc.truncated
        flags += refined.flags
    vec = T.concat_last_axis(logits)
    return model.PredictResult(predicted=int(np.argmax(vec.data)), logits=vec.data.copy(),
                               loss=T.cross_entropy_from_logits(vec, example.gold), truncated=truncated, flags=flags)


def per_path_forward(params, enc, key_turn_indices, ck, qak):
    """`model.forward` with one `dual_coattention` for O_o and one more per
    path, each over its own rows; the reference for the stacked call."""
    refined = model.refine(params, enc, key_turn_indices, ck, qak)
    lengths = (enc.c_lengths, enc.qa_lengths)
    o = model.dual_coattention(params.duma1, params.duma2, enc.h_c, enc.h_qa, *lengths)
    paths = model.PATHS[params.ablation]
    if paths:
        sides = {"k": (refined.h_c_k, refined.h_qa_k), "kt": (refined.h_c_kt, enc.h_qa)}
        fused = T.concat_last_axis([model.dual_coattention(params.duma1, params.duma2, *sides[p], *lengths)
                                    for p in paths])
        o = T.concat_last_axis([o, T.affine(fused, params.fusion_w, params.fusion_b)])
    logits = T.matmul(o, T.reshape(params.decoder_w, (o.shape[1], 1)))
    return T.reshape(logits, (o.shape[0],)), refined


def format_2_blob(blob):
    """A checkpoint rewritten as format 2 stored it: every rank-3 attention
    tensor split into one matrix per head, named with the head's index
    appended, under version 2."""
    ck = parse_checkpoint(blob)
    per_head = {}
    for name, arr in ck.tensors.items():
        per_head.update({f"{name}{i}": a for i, a in enumerate(arr)} if arr.ndim == 3 else {name: arr})
    out = bytearray(checkpoint_bytes(per_head, ck.ablation))
    out[4:8] = struct.pack("<I", 2)
    return bytes(out)


def mha_arrays(params):
    """Raw weight arrays of an MhaParams, for feeding the naive oracle."""
    return params.wq.data, params.wk.data, params.wv.data


def naive_duma(p1, p2, h_c, h_qa):
    """One option's co-attention output, a [1, 2 * d_model] row."""
    m1, _ = naive_mha(*mha_arrays(p1), h_c, h_qa, h_qa)
    m2, _ = naive_mha(*mha_arrays(p2), h_qa, h_c, h_c)
    return np.concatenate([m1.mean(axis=0), m2.mean(axis=0)])[None]


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
            rows.append((-t.weight, -len(matched), t.fact, tid))
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
