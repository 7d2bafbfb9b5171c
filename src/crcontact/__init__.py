"""2D Crouzeix-Raviart solver for quasi-static Tresca frictional contact."""
