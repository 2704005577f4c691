"""Reference implementations used to cross-check the package.

Everything here is written with plain Python loops and scalar math so that
agreement with the vectorized library code is meaningful. The functions take
bare lists and arrays rather than library types on purpose: they must not
share any code path with the implementation under test. The file reader
oracles are one exception: they return the library's Dataset, MovieLensRaw
and FactorModel, which are what the files describe, and so does the
MovieLens filter oracle. The sparse gradient
formula is the other: it is the package's former code, which the current
one must match bit for bit.
"""

import math

import numpy as np

from fairrec import FactorModel, FairrecError, MalformedLineError
from fairrec.movielens import MovieLensRaw

from conftest import dataset_from_ratings


def oracle_predict(P, Q, bu, bi, user, item):
    total = 0.0
    for k in range(len(P[user])):
        total += float(P[user][k]) * float(Q[item][k])
    return total + float(bu[user]) + float(bi[item])


def _per_group_item_averages(P, Q, bu, bi, triples, protected_flags, num_items):
    """Average prediction and average true value per (group, item).

    Returns two dicts keyed by item index, one for the protected group and
    one for the rest. Each value is (mean_prediction, mean_true, count).
    """
    sums = {True: {}, False: {}}
    for user, item, true in triples:
        group = bool(protected_flags[user])
        pred = oracle_predict(P, Q, bu, bi, user, item)
        sp, st, c = sums[group].get(item, (0.0, 0.0, 0))
        sums[group][item] = (sp + pred, st + float(true), c + 1)
    out = {}
    for group, per_item in sums.items():
        out[group] = {
            item: (sp / c, st / c, c) for item, (sp, st, c) in per_item.items()
        }
    return out[True], out[False]


def oracle_metrics(P, Q, bu, bi, triples, protected_flags, num_items):
    """The six evaluation scores computed the slow way.

    Items enter the four group-difference scores only when both groups rated
    them; the divisor is the number of such items.
    """
    prot, adv = _per_group_item_averages(
        P, Q, bu, bi, triples, protected_flags, num_items)
    both = sorted(set(prot) & set(adv))
    value = absolute = under = over = 0.0
    for item in both:
        dp = prot[item][0] - prot[item][1]
        da = adv[item][0] - adv[item][1]
        value += abs(dp - da)
        absolute += abs(abs(dp) - abs(da))
        under += abs(max(0.0, -dp) - max(0.0, -da))
        over += abs(max(0.0, dp) - max(0.0, da))
    n = len(both)
    if n:
        value, absolute, under, over = value / n, absolute / n, under / n, over / n

    pred_sums = {True: [0.0, 0], False: [0.0, 0]}
    sq_err = 0.0
    for user, item, true in triples:
        pred = oracle_predict(P, Q, bu, bi, user, item)
        group = bool(protected_flags[user])
        pred_sums[group][0] += pred
        pred_sums[group][1] += 1
        sq_err += (pred - float(true)) ** 2
    parity = abs(pred_sums[True][0] / pred_sums[True][1]
                 - pred_sums[False][0] / pred_sums[False][1])
    error = math.sqrt(sq_err / len(triples))
    return {
        "error": error,
        "value": value,
        "absolute": absolute,
        "under": under,
        "over": over,
        "parity": parity,
        "items_counted": n,
    }


def oracle_objective(P, Q, bu, bi, triples, lam):
    sq_err = 0.0
    for user, item, true in triples:
        sq_err += (oracle_predict(P, Q, bu, bi, user, item) - float(true)) ** 2
    frob = 0.0
    for row in P:
        for x in row:
            frob += float(x) ** 2
    for row in Q:
        for x in row:
            frob += float(x) ** 2
    return sq_err / len(triples) + 0.5 * float(lam) * frob


def _smooth_abs(x, eps):
    if eps <= 0.0:
        return abs(x)
    return math.sqrt(x * x + eps * eps)


def oracle_penalty(P, Q, bu, bi, triples, protected_flags, num_items, terms,
                   smoothing=0.0):
    """Weighted sum of the training-set scores for the requested terms.

    With smoothing > 0 every absolute value becomes sqrt(x^2 + eps^2); the
    hinges max(0, x) stay exact.
    """
    prot, adv = _per_group_item_averages(
        P, Q, bu, bi, triples, protected_flags, num_items)
    both = sorted(set(prot) & set(adv))
    total = 0.0
    for kind, weight in terms:
        if kind == "parity":
            sums = {True: [0.0, 0], False: [0.0, 0]}
            for user, item, _ in triples:
                group = bool(protected_flags[user])
                sums[group][0] += oracle_predict(P, Q, bu, bi, user, item)
                sums[group][1] += 1
            term = _smooth_abs(sums[True][0] / sums[True][1]
                               - sums[False][0] / sums[False][1], smoothing)
        else:
            acc = 0.0
            for item in both:
                dp = prot[item][0] - prot[item][1]
                da = adv[item][0] - adv[item][1]
                if kind == "value":
                    acc += _smooth_abs(dp - da, smoothing)
                elif kind == "absolute":
                    acc += _smooth_abs(_smooth_abs(dp, smoothing)
                                       - _smooth_abs(da, smoothing), smoothing)
                elif kind == "under":
                    acc += _smooth_abs(max(0.0, -dp) - max(0.0, -da), smoothing)
                elif kind == "over":
                    acc += _smooth_abs(max(0.0, dp) - max(0.0, da), smoothing)
                else:
                    raise ValueError(f"unknown kind {kind!r}")
            term = acc / len(both) if both else 0.0
        total += float(weight) * term
    return total


def oracle_csr_gradient(P, Q, user_idx, item_idx, coeffs, lam):
    """sum_e coeffs[e] * d(prediction_e)/d(parameters), plus lam * P and
    lam * Q, in the flat (P, Q, bu, bi) layout, by the sparse formula the
    package used before the bias sums were folded into its products: C @ Q
    and C.T @ P for C in CSR form, and the bias gradients as weighted
    bincounts. Entries must be sorted by (user, item)."""
    from scipy.sparse import csr_matrix

    n, m = len(P), len(Q)
    row_starts = np.concatenate(([0], np.cumsum(np.bincount(user_idx, minlength=n))))
    C = csr_matrix((coeffs, item_idx, row_starts), shape=(n, m))
    return np.concatenate([
        (C @ Q + lam * P).ravel(),
        (C.T @ P + lam * Q).ravel(),
        np.bincount(user_idx, weights=coeffs, minlength=n),
        np.bincount(item_idx, weights=coeffs, minlength=m),
    ])


def central_difference(func, x, h=1e-5):
    """Central finite-difference gradient of func at the list x."""
    grad = []
    for k in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[k] += h
        lo[k] -= h
        grad.append((func(hi) - func(lo)) / (2.0 * h))
    return grad


def oracle_welch(a, b):
    """Welch two-sample t statistic and degrees of freedom."""
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, df


def oracle_format_dataset(d):
    """The dataset text format written one line at a time."""
    def fmt(x):
        return repr(float(x))

    lo, hi = d.rating_scale
    lines = [f"users={d.num_users} items={d.num_items} scale={fmt(lo)},{fmt(hi)}"]
    for u in range(d.num_users):
        flag = 1 if d.protected[u] else 0
        if d.user_group_fine is not None:
            lines.append(f"u {u} {flag} {d.user_group_fine[u]}")
        else:
            lines.append(f"u {u} {flag}")
    if d.item_group is not None:
        for i in range(d.num_items):
            lines.append(f"g {i} {d.item_group[i]}")
    for u, i, v in zip(d.user_idx, d.item_idx, d.values):
        lines.append(f"r {u} {i} {fmt(v)}")
    return "\n".join(lines) + "\n"


def oracle_parse_dataset(text):
    """The dataset text format read one line at a time.

    It returns the library's Dataset and raises its MalformedLineError, so
    that results and failures compare directly with parse_dataset's.
    """
    lines = text.splitlines()
    if not lines:
        raise MalformedLineError(1, "empty dataset file")
    try:
        fields = dict(part.split("=", 1) for part in lines[0].split())
        users, items = fields["users"], fields["items"]
        lo_s, hi_s = fields["scale"].split(",")
    except (ValueError, KeyError) as exc:
        raise MalformedLineError(1, f"bad header {lines[0].strip()[:1000]!r}: "
                                    "expected users=N items=M scale=LO,HI") from exc
    try:
        num_users, num_items = int(users), int(items)
        scale = (float(lo_s), float(hi_s))
    except ValueError as exc:
        raise MalformedLineError(1, f"bad header: {exc}") from exc
    if num_users < 1 or num_items < 1:
        raise MalformedLineError(1, "user and item counts must be >= 1")
    if not (math.isfinite(scale[0]) and math.isfinite(scale[1]) and scale[0] <= scale[1]):
        raise MalformedLineError(1, f"invalid rating scale {scale}")

    protected = np.zeros(num_users, dtype=bool)
    seen_user = np.zeros(num_users, dtype=bool)
    fine = {}
    groups = {}
    triples = []
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "u" and len(parts) in (3, 4):
                u = int(parts[1])
                if not 0 <= u < num_users:
                    raise MalformedLineError(no, f"user index {u} out of range")
                if parts[2] not in ("0", "1"):
                    raise MalformedLineError(no, "protected flag must be 0 or 1")
                protected[u] = parts[2] == "1"
                seen_user[u] = True
                if len(parts) == 4:
                    if parts[3] not in ("W", "WS", "MS", "M"):
                        raise MalformedLineError(no, f"unknown fine user group {parts[3]!r}")
                    fine[u] = parts[3]
            elif kind == "g" and len(parts) == 3:
                i = int(parts[1])
                if not 0 <= i < num_items:
                    raise MalformedLineError(no, f"item index {i} out of range")
                if parts[2] not in ("Fem", "STEM", "Masc"):
                    raise MalformedLineError(no, f"unknown item group {parts[2]!r}")
                groups[i] = parts[2]
            elif kind == "r" and len(parts) == 4:
                triples.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise MalformedLineError(no, f"unrecognized line {line[:1000]!r}")
        except ValueError as exc:
            raise MalformedLineError(no, str(exc)) from exc
    if not seen_user.all():
        missing = int(np.flatnonzero(~seen_user)[0])
        raise MalformedLineError(len(lines), f"no 'u' line for user {missing}")
    if fine and len(fine) != num_users:
        raise MalformedLineError(len(lines), "fine labels must cover all users or none")
    if groups and len(groups) != num_items:
        raise MalformedLineError(len(lines), "item labels must cover all items or none")
    return dataset_from_ratings(
        num_users, num_items, triples, protected, scale,
        tuple(fine[u] for u in range(num_users)) if fine else None,
        tuple(groups[i] for i in range(num_items)) if groups else None,
    )


def _ml_lines(path):
    with open(path, "r", encoding="latin-1") as fh:
        return fh.read().splitlines()


def _ml_id(no, text, seen):
    try:
        key = int(text)
    except ValueError as exc:
        raise MalformedLineError(no, str(exc)) from exc
    if not -2**63 <= key < 2**63:
        raise MalformedLineError(no, f"id {key} outside the int64 range")
    if key in seen:
        raise MalformedLineError(no, f"repeated id {key}")
    return key


def oracle_parse_ml1m(users_file, movies_file, ratings_file):
    """The three ML-1M files read one line at a time.

    This is the per-line reader that the columnar one replaced, plus its two
    later checks: an id may occur once per file, and ids and timestamps must
    fit int64. A rating's user and movie become their positions among the
    sorted ids, found through dicts.
    """
    users = {}
    for no, line in enumerate(_ml_lines(users_file), start=1):
        if not line.strip():
            continue
        parts = line.split("::")
        if len(parts) != 5 or parts[1] not in ("M", "F"):
            raise MalformedLineError(no, f"bad users line {line[:1000]!r}")
        users[_ml_id(no, parts[0], users)] = parts[1]

    movies = {}
    for no, line in enumerate(_ml_lines(movies_file), start=1):
        if not line.strip():
            continue
        parts = line.split("::")
        if len(parts) != 3:
            raise MalformedLineError(no, f"bad movies line {line[:1000]!r}")
        movies[_ml_id(no, parts[0], movies)] = frozenset(parts[2].split("|"))

    user_ids, movie_ids, values = [], [], []
    for no, line in enumerate(_ml_lines(ratings_file), start=1):
        if not line.strip():
            continue
        parts = line.split("::")
        if len(parts) != 4:
            raise MalformedLineError(no, f"bad ratings line {line[:1000]!r}")
        try:
            uid, mid, val, ts = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise MalformedLineError(no, str(exc)) from exc
        if not 1 <= val <= 5:
            raise MalformedLineError(no, f"rating {val} outside [1, 5]")
        if not -2**63 <= ts < 2**63:
            raise MalformedLineError(no, f"timestamp {ts} outside the int64 range")
        if uid not in users:
            raise MalformedLineError(no, f"rating references unknown user {uid}")
        if mid not in movies:
            raise MalformedLineError(no, f"rating references unknown movie {mid}")
        user_ids.append(uid)
        movie_ids.append(mid)
        values.append(val)
    user_at = {uid: k for k, uid in enumerate(sorted(users))}
    movie_at = {mid: k for k, mid in enumerate(sorted(movies))}
    return MovieLensRaw(users, movies, [user_at[uid] for uid in user_ids],
                        [movie_at[mid] for mid in movie_ids], values)


def oracle_filter_dataset(raw, genres, min_ratings, mode):
    """The MovieLens filter with sets, dicts and sorted lists: keep the movies
    matching the genres (canonical names), then the users with at least
    min_ratings ratings of kept movies, then the ratings of both, renumbered
    in id order. A repeated kept pair is named by its MovieLens ids, which a
    rating's positions index in sorted order."""
    selected = set(genres)
    kept_movies = set()
    for mid, movie_genres in raw.movies.items():
        if mode == "any-genre":
            match = bool(movie_genres & selected)
        elif mode == "only-genres":
            match = bool(movie_genres) and movie_genres <= selected
        else:
            raise ValueError(f"unknown genre mode {mode!r}")
        if match:
            kept_movies.add(mid)
    uids, mids = sorted(raw.users), sorted(raw.movies)
    ratings = [(uids[u], mids[m], value) for u, m, value in
               zip(raw.user_pos.tolist(), raw.movie_pos.tolist(), raw.values.tolist())]
    counts = {uid: 0 for uid in raw.users}
    for uid, mid, _ in ratings:
        if mid in kept_movies:
            counts[uid] += 1
    kept_users = sorted(uid for uid in raw.users if counts[uid] >= min_ratings)
    kept = sorted((uid, mid, value) for uid, mid, value in ratings
                  if mid in kept_movies and counts[uid] >= min_ratings)
    if not kept:
        raise FairrecError("no users or movies survive the filter")
    for a, b in zip(kept, kept[1:]):
        if a[:2] == b[:2]:
            raise FairrecError(f"duplicate rating for MovieLens user {a[0]}, movie {a[1]}")
    user_index = {uid: k for k, uid in enumerate(kept_users)}
    movie_index = {mid: k for k, mid in enumerate(sorted({mid for _, mid, _ in kept}))}
    return dataset_from_ratings(
        len(user_index), len(movie_index),
        [(user_index[uid], movie_index[mid], value) for uid, mid, value in kept],
        [raw.users[uid] == "F" for uid in kept_users])


def oracle_parse_model(text):
    """The checkpoint format read whole, then one line at a time.
    trainer.parse_model reads an open stream in pieces and holds at most the
    lines its header declares, plus one, but checks its rows line by line
    with this same algorithm, so agreement on the rows shows little: a bug
    both share goes unseen."""
    lines = text.splitlines()
    if not lines:
        raise MalformedLineError(1, "empty checkpoint")
    try:
        header = dict(part.split("=", 1) for part in lines[0].split())
        d, n, m = header["d"], header["n"], header["m"]
    except (ValueError, KeyError) as exc:
        raise MalformedLineError(1, f"bad checkpoint header {lines[0][:1000]!r}: "
                                    "expected d=D n=N m=M") from exc
    try:
        d, n, m = int(d), int(n), int(m)
    except ValueError as exc:
        raise MalformedLineError(1, f"bad checkpoint header: {exc}") from exc
    if min(d, n, m) < 1:
        raise MalformedLineError(1, f"checkpoint sizes must be >= 1, got d={d} n={n} m={m}")
    expected = 1 + n + m + 2
    if len(lines) != expected:
        raise MalformedLineError(len(lines), f"expected {expected} lines, got {len(lines)}")

    def row(line_no, tag, width):
        fields = lines[line_no - 1].split()
        if len(fields) != width + 1 or fields[0] != tag:
            raise MalformedLineError(line_no, f"expected '{tag}' row with {width} values")
        try:
            values = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise MalformedLineError(line_no, f"bad number: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise MalformedLineError(line_no, "parameters must be finite")
        return values

    user_factors = np.array([row(2 + i, "p", d) for i in range(n)])
    item_factors = np.array([row(2 + n + j, "q", d) for j in range(m)])
    user_bias = np.array(row(2 + n + m, "bu", n))
    item_bias = np.array(row(3 + n + m, "bi", m))
    return FactorModel(user_factors.reshape(n, d), item_factors.reshape(m, d),
                       user_bias, item_bias)
