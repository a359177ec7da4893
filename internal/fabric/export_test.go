package fabric

// InputWorkers exposes inputWorkers to the package's external tests.
var InputWorkers = inputWorkers
