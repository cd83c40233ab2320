package summarize

// CtxCheckEvery exposes the exact search's poll interval to the external
// tests.
const CtxCheckEvery = ctxCheckEvery
