package model

// ReadJSONReference exports the reference decoder to the external
// differential tests, which need randgraph and so cannot live in this
// package.
var ReadJSONReference = readJSONReference
