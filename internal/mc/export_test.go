package mc

// FastPathAvailable exposes the fast-path gate so tests can assert which
// configurations actually bypass the reference loop.
func FastPathAvailable(cfg Config) bool { return fastPath(cfg) }

// withReference returns cfg forced onto the reference path, the oracle
// the differential suite compares the fast path against.
func withReference(cfg Config) Config {
	cfg.reference = true
	return cfg
}
