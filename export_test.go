package pdnsec

// ReproduceMatrix is reproduce for the root tests: the report and the
// attack battery it was rendered from.
var ReproduceMatrix = reproduce
