"""Independent reference implementations the tests check against.

Everything here is written the slow, obvious way (explicit loops,
textbook formulas) so a disagreement points at the production code,
not at a shared helper.
"""

from collections import deque

import numpy as np

from vcas import envsim


def cosine_similarity(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def kernel_matrix(rows_a, rows_b, kernel=cosine_similarity):
    out = np.empty((len(rows_a), len(rows_b)))
    for i, ra in enumerate(rows_a):
        for j, rb in enumerate(rows_b):
            out[i, j] = kernel(ra, rb)
    return out


def kpca_reference(rows, n_components, kernel=cosine_similarity):
    """Explicit double-centering + dense eigensolve.

    Returns (eigenvalues, train_projections, explained_variance_ratio,
    project_fn) where project_fn maps new rows to the same embedding.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    gram = kernel_matrix(rows, rows, kernel)
    ones = np.full((n, n), 1.0 / n)
    centered = gram - ones @ gram - gram @ ones + ones @ gram @ ones
    eigenvalues, eigenvectors = np.linalg.eigh(centered)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    positive = eigenvalues > 1e-10 * max(eigenvalues[0], 0.0)
    evr = eigenvalues[:n_components] / eigenvalues[positive].sum()
    coeffs = eigenvectors[:, :n_components] / np.sqrt(eigenvalues[:n_components])
    train_proj = centered @ coeffs
    row_means = gram.mean(axis=1)
    grand_mean = gram.mean()

    def project(new_rows):
        new_rows = np.atleast_2d(np.asarray(new_rows, dtype=float))
        k = kernel_matrix(new_rows, rows, kernel)
        k_centered = k - k.mean(axis=1, keepdims=True) - row_means + grand_mean
        return k_centered @ coeffs

    return eigenvalues, train_proj, evr, project


def covariance_pca_projections(rows, n_components):
    """Classical PCA via the covariance eigendecomposition."""
    rows = np.asarray(rows, dtype=float)
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / rows.shape[0]
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    return centered @ eigenvectors[:, order]


def zero_crossing_frequencies(samples, sample_rate, block=40):
    """Local frequency from linearly interpolated zero crossings.

    Consecutive crossings are grouped into non-overlapping blocks; a
    block spanning k-1 half-periods estimates f = (k-1) / (2 span),
    assigned to the block's midpoint.  For a linear sweep that block
    average equals the instantaneous frequency at the midpoint, while
    the averaging washes out per-crossing interpolation error (a
    single half-period is only ~2 samples near 19 kHz at fs=44100).
    """
    samples = np.asarray(samples, dtype=float)
    crossings = []
    for i in range(len(samples) - 1):
        a, b = samples[i], samples[i + 1]
        if a == 0.0:
            crossings.append(float(i))
        elif a * b < 0.0:
            crossings.append(i + a / (a - b))
    crossings = np.asarray(crossings) / sample_rate
    times = []
    freqs = []
    for s in range(0, len(crossings) - block + 1, block):
        c0 = crossings[s]
        c1 = crossings[s + block - 1]
        times.append((c0 + c1) / 2.0)
        freqs.append((block - 1) / (2.0 * (c1 - c0)))
    return np.asarray(times), np.asarray(freqs)


def band_bins(bin_hz, n_bins, f_low, f_high):
    """Mask of the bins k with f_low <= k * bin_hz < f_high."""
    return np.array([f_low <= k * bin_hz < f_high for k in range(n_bins)])


def time_domain_energy(samples):
    return float(np.sum(np.square(np.asarray(samples, dtype=float))))


def one_sided_energy(magnitudes, n_samples):
    """Parseval right-hand side for a one-sided magnitude spectrum."""
    m = np.asarray(magnitudes, dtype=float)
    total = m[0] ** 2 + 2.0 * np.sum(m[1:-1] ** 2)
    if n_samples % 2 == 0:
        total += m[-1] ** 2
    else:
        total += 2.0 * m[-1] ** 2
    return total / n_samples


def finite_difference_gradients(loss_fn, model, step=1e-5):
    """Central differences over every weight and bias coordinate.

    loss_fn takes the model and returns a scalar; the model is mutated
    in place one coordinate at a time and always restored.
    """
    grads = []
    for layer in range(len(model.weights)):
        for arrays in (model.weights, model.biases):
            tensor = arrays[layer]
            grad = np.empty_like(tensor)
            flat = tensor.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                hi = loss_fn(model)
                flat[idx] = orig - step
                lo = loss_fn(model)
                flat[idx] = orig
                gflat[idx] = (hi - lo) / (2.0 * step)
            if arrays is model.weights:
                dw = grad
            else:
                grads.append((dw, grad))
    return grads


def subsampled_relative_gradient_error(
    analytic, loss_fn, model, rng, per_tensor=12, step=1e-5
):
    """Worst relative error over random coordinates of every tensor.

    Relative error is |fd - analytic| / max(1e-8, |fd| + |analytic|),
    checked at `per_tensor` random coordinates per weight/bias tensor.
    """
    worst = 0.0
    for layer, (dw, db) in enumerate(analytic):
        for tensor, grad in (
            (model.weights[layer], dw),
            (model.biases[layer], db),
        ):
            flat = tensor.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            count = min(per_tensor, flat.size)
            coords = rng.choice(flat.size, size=count, replace=False)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + step
                hi = loss_fn(model)
                flat[idx] = orig - step
                lo = loss_fn(model)
                flat[idx] = orig
                fd = (hi - lo) / (2.0 * step)
                err = abs(fd - gflat[idx]) / max(1e-8, abs(fd) + abs(gflat[idx]))
                worst = max(worst, err)
    return worst


def df2t_second_order(b, a, samples):
    """lfilter's direct-form-II-transposed recursion for one section with
    a[0] == 1, one sample at a time and in lfilter's operation order."""
    z0 = z1 = 0.0
    out = np.empty(len(samples))
    for n, x in enumerate(samples):
        y = z0 + b[0] * x
        z0 = (z1 + b[1] * x) - a[1] * y
        z1 = b[2] * x - a[2] * y
        out[n] = y
    return out


def expert_path_length(pose):
    """Closed form of the expert's episode length: one 4.5 degree step per
    grid cell each angle is short of 90."""
    return int(round((90.0 - pose.theta_z + 90.0 - pose.theta_x) / 4.5))


def generate_demos_reference(n_episodes, regime, m, seed, window_length=10):
    """The expert's demo pairs from a loop of their own: per episode, one
    generator draws the start pose, then one observation per step, pushed
    into the left-padded window that is recorded with the expert's action.
    """
    demos = []
    for child in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(child)
        pose = envsim.start_pose_sampler(regime, rng)
        window = deque([None] * window_length, maxlen=window_length)
        while True:
            action = envsim.expert_action(pose)
            if action is None:
                break
            true_c = envsim.contact_type(pose.theta_x, pose.theta_z)
            window.append(envsim.sample_observation(m, true_c, rng))
            demos.append(envsim.DemoPair(tuple(window), action))
            pose = envsim.step(pose, action)
    return demos
