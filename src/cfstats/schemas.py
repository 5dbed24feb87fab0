"""Output schemas for the CLI file formats.

Every file the CLI writes carries SCHEMA_VERSION, either as a
"schema_version" JSON field or as a leading "# schema=..." comment line
in CSV files.  A machine-readable copy of this module's SCHEMAS dict is
written as schema.json next to every output set.

JSON floats carry 17 significant digits; a NaN or an infinity, which
JSON cannot represent, is written as null.
"""

SCHEMA_VERSION = "cfstats.v1"

SCHEMAS = {
    "trajectories.csv": {
        "comment_line": "# schema=cfstats.trajectories.v1",
        "columns": {
            "denominator": "int, exact common denominator q of the point",
            "num_k": "int, k-th numerator (one column per coordinate)",
            "depth": "int, number of digits in the canonical expansion",
            "weight": "float, (m+1) * log(denominator), 17 significant digits",
            "N_<label>": "int, occurrences of the target label in the expansion",
        },
        "order": "by denominator, then lexicographic numerators",
    },
    "histogram.csv": {
        "comment_line": "# schema=cfstats.histogram.v1",
        "columns": {
            "target": "string, the digit label the marginal belongs to",
            "bin_lo": "float, left bin edge of phi/sqrt(Q)",
            "bin_hi": "float, right bin edge",
            "count": "int, ensemble multiplicity in the bin",
        },
        "bins": "histogram_bins (default 101) uniform bins over [-5 sigma, 5 sigma] per marginal",
    },
    "summary.json": {
        "schema_version": "string",
        "config": "the resolved experiment configuration",
        "ensemble_size": "int, number of enumerated points",
        "Q": "float, weight bound used for normalization",
        "lambda_empirical": "per-target mean count over Q",
        "lambda_spectral": "per-target frequency from the transfer operator",
        "lambda_used_for_centring": "the centring vector of phi: lambda_spectral, or "
        "lambda_empirical with use_empirical_lambda",
        "covariance_empirical": "second-moment matrix of phi/sqrt(Q)",
        "covariance_spectral": "matrix from the eigenvalue Hessian",
        "mean_phi": "per-target mean of phi/sqrt(Q)",
        "ks_distance": "per-target KS distance to the centred Gaussian",
        "moments": "normalized mixed moments up to order 4, keys 'p1,p2,...'",
        "ldp": "per-epsilon deviation proportions and fitted slopes (ldp runs)",
        "ks_by_Q": "KS distance per grid point (clt runs)",
        "low_confidence": "bool, ensemble smaller than 100 points",
    },
    "constants.json": {
        "schema_version": "string",
        "config": "the resolved experiment configuration",
        "algorithm": "string",
        "eigenvalue_at_1": "leading eigenvalue at (s, t) = (1, 0)",
        "eigenvalue_tail_bar": "bracket half-width from the truncated branch tail",
        "eigenvalue_iterations": "int, power-iteration steps of the solve at (1, 0)",
        "eigenvalue_residual": "sup |L phi - lambda phi| / lambda at the returned eigenpair, "
        "phi normalized to sup norm 1",
        "entropy": "-lambda_s(1, 0)",
        "entropy_bar": "change of lambda_s under one residual correction of the eigenpair, "
        "left eigenvector and bordered solves; excludes grid and j_max error",
        "lambda": "per-target digit frequencies",
        "lambda_bar": "(t-gradient bar + |lambda| * entropy_bar) / entropy, the same kind of bar",
        "sigma": "covariance matrix of the centred counts",
        "sigma_bar": "largest second-derivative bar / entropy, the same kind of bar",
        "witnesses": "two periodic-point log-derivatives (gauss, brun only)",
        "witness_fixed_points": "the two periodic points of the witnesses (gauss, brun only)",
        "witness_ratio_cf": "continued fraction of the witness ratio (diagnostic)",
    },
    "density.csv": {
        "comment_line": "# schema=cfstats.density.v1",
        "columns": {
            "x": "float, grid node (one-dimensional maps)",
            "x1": "float, first coordinate of the grid node (two-dimensional maps)",
            "x2": "float, second coordinate of the grid node (two-dimensional maps)",
            "value": "float, invariant density at the node, unit integral under midpoint "
            "quadrature",
        },
        "order": "by x, or by x1 then x2",
    },
    "verify_report.json": {
        "schema_version": "string",
        "criteria": "list of {name, passed, detail, values}; values holds the numbers the criterion measured",
    },
}
