let dead x = x + 1
