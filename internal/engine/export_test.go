package engine

// EnumFits lets the external oracle test assert that its wide queries
// really overflow the enumeration budget and take the posting path.
var EnumFits = enumFits
